// Package readahead implements the Linux-style incremental readahead state
// machine the paper's OSonly baseline relies on (§2.1, §3.3).
//
// The model follows Linux's ondemand readahead: a per-file window that
// starts small (4 pages), doubles on detected sequential access up to a
// hard cap (32 pages = 128KB by default — the limit the paper criticizes
// and Figure 10 sweeps), places a PG_readahead marker near the window's
// edge to trigger the next asynchronous ramp, and collapses back to the
// initial size when access turns random. fadvise hints switch the mode:
// SEQUENTIAL doubles the cap, RANDOM disables readahead entirely.
package readahead

// Mode is the per-file readahead policy, set via fadvise.
type Mode int

const (
	// ModeNormal lets the state machine detect the pattern.
	ModeNormal Mode = iota
	// ModeSequential doubles the window cap (POSIX_FADV_SEQUENTIAL).
	ModeSequential
	// ModeRandom disables readahead (POSIX_FADV_RANDOM).
	ModeRandom
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeRandom:
		return "random"
	default:
		return "normal"
	}
}

// initPages is the initial window size in pages (Linux: 4 = 16KB).
const initPages = 4

// Config carries the tunables. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// MaxPages is the window cap in pages (Linux: 32 = 128KB). This is
	// the "prefetch limit" Figure 10 varies from 32KB to 8MB.
	MaxPages int64
}

// DefaultConfig returns the Linux defaults: 16KB initial, 128KB cap.
func DefaultConfig() Config { return Config{MaxPages: 32} }

// State is the per-file readahead state. It is not synchronized; the VFS
// serializes access under the file's lock.
type State struct {
	mode Mode

	// Current window [start, start+size); marker sits asyncSize pages
	// before the window end.
	start, size, asyncSize int64

	// prevEnd is the page after the last access, for sequentiality checks.
	prevEnd int64
	primed  bool
}

// Sequential reports whether a read of req ≥ 1 pages at off continues the
// stream: it starts at or before the previous read's end and extends
// strictly past it (a first read is sequential at page 0). Using > prevEnd
// (not > prevEnd-1) matters: an exact re-read of the previous range ends
// at prevEnd and advances nothing, so it must classify as non-sequential —
// otherwise a re-read of cold pages restarts a readahead window for data
// the reader already consumed.
func (s *State) Sequential(off, req int64) bool {
	return !s.primed && off == 0 || s.primed && off <= s.prevEnd && off+req > s.prevEnd
}

// SetMode applies an fadvise-style hint.
func (s *State) SetMode(m Mode) { s.mode = m }

// Mode reports the current policy.
func (s *State) Mode() Mode { return s.mode }

// WindowPages reports the current window size (for telemetry/tests).
func (s *State) WindowPages() int64 { return s.size }

// Action is one readahead decision: fetch pages [Lo, Hi); if Async, the
// fetch must not block the reading thread. MarkerAt, when >= 0, is the
// page to tag with the PG_readahead marker so the next access through it
// triggers the asynchronous ramp.
type Action struct {
	Lo, Hi   int64
	Async    bool
	MarkerAt int64
}

// Pages reports how many pages the action covers.
func (a Action) Pages() int64 { return a.Hi - a.Lo }

func (c Config) initSize(req, max int64) int64 {
	size := req * 2
	if size < initPages {
		size = initPages
	}
	if size > max {
		size = max
	}
	return size
}

func nextSize(cur, max int64) int64 {
	var next int64
	if cur <= max/16 {
		next = cur * 4
	} else {
		next = cur * 2
	}
	if next > max {
		next = max
	}
	if next < 1 {
		next = 1
	}
	return next
}

func (s *State) maxPages(cfg Config) int64 {
	max := cfg.MaxPages
	if s.mode == ModeSequential {
		max *= 2
	}
	if max < 1 {
		max = 1
	}
	return max
}

// OnDemand is consulted on every read of pages [off, off+req) of a file
// with fileBlocks total pages. hitMarker reports that the access range
// contained the PG_readahead marker (the VFS clears it); missed reports
// that the first accessed page was absent from the cache. The returned
// action is the readahead to perform beyond the demanded pages; a zero
// Pages() action means "no readahead".
func (s *State) OnDemand(cfg Config, off, req, fileBlocks int64, hitMarker, missed bool) Action {
	none := Action{MarkerAt: -1}
	if req < 1 {
		req = 1
	}
	defer func() {
		s.prevEnd = off + req
		s.primed = true
	}()

	if s.mode == ModeRandom {
		return none
	}
	max := s.maxPages(cfg)

	sequential := s.Sequential(off, req)

	switch {
	case hitMarker:
		// Async ramp: extend the window past its current end.
		newSize := nextSize(s.size, max)
		lo := s.start + s.size
		s.start, s.size, s.asyncSize = lo, newSize, newSize
		return s.clampAction(lo, lo+newSize, fileBlocks, true)

	case sequential && missed:
		// Sync initial (or re-initial) window from the miss point.
		size := cfg.initSize(req, max)
		s.start, s.size = off, size
		s.asyncSize = size - req
		if s.asyncSize < 1 {
			s.asyncSize = size
		}
		return s.clampAction(off, off+size, fileBlocks, false)

	case sequential:
		// Cached sequential read inside the window: nothing to do until
		// the marker fires.
		return none

	default:
		// Random access: collapse the window (the shrink the paper
		// describes) and read nothing extra.
		s.size = cfg.initSize(req, max)
		s.start = off
		s.asyncSize = s.size
		return none
	}
}

// clampAction bounds an action to the file and computes the marker page.
func (s *State) clampAction(lo, hi, fileBlocks int64, async bool) Action {
	if hi > fileBlocks {
		hi = fileBlocks
	}
	if lo >= hi {
		return Action{MarkerAt: -1}
	}
	marker := hi - s.asyncSize
	if marker < lo {
		marker = lo
	}
	if marker >= hi {
		marker = -1
	}
	return Action{Lo: lo, Hi: hi, Async: async, MarkerAt: marker}
}

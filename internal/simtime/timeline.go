package simtime

// WaitKind classifies why a timeline spent time not doing useful CPU work.
type WaitKind int

const (
	// WaitCPU is productive compute (Advance).
	WaitCPU WaitKind = iota
	// WaitIO is time blocked on device completion.
	WaitIO
	// WaitLock is time blocked on a contended ledger (lock).
	WaitLock
	numWaitKinds
)

// String names the wait kind.
func (k WaitKind) String() string {
	switch k {
	case WaitCPU:
		return "cpu"
	case WaitIO:
		return "io"
	case WaitLock:
		return "lock"
	default:
		return "unknown"
	}
}

// Timeline is the virtual clock of one simulated thread. A Timeline is not
// safe for concurrent use; each simulated thread owns exactly one.
type Timeline struct {
	now   Time
	start Time
	acct  [numWaitKinds]Duration

	// trace is the thread's current tracing span, owned by the telemetry
	// layer (simtime cannot import it). nil when tracing is disabled or
	// the current operation is unsampled — the hot-path fast case.
	trace any
}

// SetTrace installs the thread's current tracing context (nil clears it).
// The value is opaque to simtime; telemetry.Begin/End manage it.
func (tl *Timeline) SetTrace(v any) { tl.trace = v }

// Trace reports the thread's current tracing context, nil when tracing is
// off. Safe on a nil timeline.
func (tl *Timeline) Trace() any {
	if tl == nil {
		return nil
	}
	return tl.trace
}

// NewTimeline returns a timeline starting at the given virtual time.
func NewTimeline(start Time) *Timeline {
	return &Timeline{now: start, start: start}
}

// Now reports the thread's current virtual time.
func (tl *Timeline) Now() Time { return tl.now }

// Elapsed reports total virtual time since the timeline started.
func (tl *Timeline) Elapsed() Duration { return tl.now.Sub(tl.start) }

// Advance charges d of CPU work to the thread.
func (tl *Timeline) Advance(d Duration) {
	if d <= 0 {
		return
	}
	tl.now = tl.now.Add(d)
	tl.acct[WaitCPU] += d
}

// WaitUntil blocks the thread until virtual time t, accounting the gap to
// the given wait kind. A t in the thread's past is a no-op.
func (tl *Timeline) WaitUntil(t Time, kind WaitKind) {
	if t <= tl.now {
		return
	}
	tl.acct[kind] += t.Sub(tl.now)
	tl.now = t
}

// Account reports the total virtual time accounted to kind.
func (tl *Timeline) Account(kind WaitKind) Duration { return tl.acct[kind] }

// Stats is a snapshot of a timeline's accounting.
type Stats struct {
	Elapsed  Duration
	CPU      Duration
	IOWait   Duration
	LockWait Duration
}

// Stats snapshots the timeline accounting.
func (tl *Timeline) Stats() Stats {
	return Stats{
		Elapsed:  tl.Elapsed(),
		CPU:      tl.acct[WaitCPU],
		IOWait:   tl.acct[WaitIO],
		LockWait: tl.acct[WaitLock],
	}
}

// Merge adds o into s field-wise.
func (s *Stats) Merge(o Stats) {
	s.Elapsed += o.Elapsed
	s.CPU += o.CPU
	s.IOWait += o.IOWait
	s.LockWait += o.LockWait
}

// LockPercent reports lock wait as a percentage of total elapsed time.
func (s Stats) LockPercent() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return 100 * float64(s.LockWait) / float64(s.Elapsed)
}

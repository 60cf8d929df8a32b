package main

import (
	"time"

	"repro/internal/simtime"
)

// opKind classifies a workload operation, so per-kind latency tails
// (lsm get vs put) can be split out of one log.
type opKind uint8

const (
	opRead opKind = iota
	opGet
	opPut
)

// callKind names a call the benchmark makes into a layer; each is a child
// span of the workload op that made it and a host-time sample of that
// layer's public entry point.
type callKind uint8

const (
	callReadAt callKind = iota
	callGet
	callPut
	callPrepRead
	callSubmit
	callReap
	// callRingBatch is not a call but a derived sample: one tenant
	// batch's PrepRead+Submit+Reap host time per op it carried, the ring
	// path's counterpart of one ReadAt.
	callRingBatch
	numCalls
)

var callNames = [numCalls]struct{ layer, name string }{
	{"crosslib", "crosslib.File.ReadAt"},
	{"lsm", "lsm.DB.Get"},
	{"lsm", "lsm.DB.Put"},
	{"crosslib", "crosslib.Ring.PrepRead"},
	{"crosslib", "crosslib.Ring.Submit"},
	{"crosslib", "crosslib.Ring.Reap"},
	{"crosslib", ""},
}

// access is one recorded (inode, block range) of a workload's stream;
// the host probes replay the first sampleCap of them into each layer.
type access struct{ ino, lo, hi int64 }

const sampleCap = 64 << 10

// span is one timed interval of the benchmark's own trace: a workload op,
// or a call it made into a layer. Host times are ns since the pass began,
// virtual times ns on the op's timeline; CPU/IO/Lock are that timeline's
// accounting over the interval.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"` // -1 for an op span
	Op        int64  `json:"op"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
	CPU       int64  `json:"virt_cpu_ns"`
	IO        int64  `json:"virt_io_ns"`
	Lock      int64  `json:"virt_lock_ns"`
}

// spanCap bounds the spans one pass keeps; ops are sampled 1-in-K,
// deterministically by op index, to stay under it.
const spanCap = 200_000

// mark is a point on both clocks, taken when a span opens.
type mark struct {
	host time.Time
	virt simtime.Time
	acct simtime.Stats
}

// opLog collects what one simulated thread measured: per-op virtual
// latency and — traced passes only — host time per layer call, the access
// sample and the spans.
type opLog struct {
	traced      bool
	verifyEvery int // byte-verify one op in this many

	n      int
	lat    []int64
	kinds  []opKind
	bytes  int64
	failed int64

	// Traced passes only.
	epoch     time.Time
	host      [numCalls][]int32
	late      []int64 // open loop: submit time − due time, virtual ns
	sample    []access
	spanEvery int
	spans     []span
	pending   []span // child spans of the op in progress
}

func newOpLog(ops int, traced bool, epoch time.Time) *opLog {
	l := &opLog{
		traced:      traced,
		verifyEvery: 32,
		lat:         make([]int64, 0, ops),
		kinds:       make([]opKind, 0, ops),
		epoch:       epoch,
	}
	if traced {
		l.verifyEvery = 1
		// An op records itself plus up to ~3 calls; keep the total
		// under spanCap whatever the op count.
		l.spanEvery = ops*4/spanCap + 1
		l.sample = make([]access, 0, sampleCap)
	}
	return l
}

// shouldVerify reports whether the op about to be logged is one whose
// bytes are checked against ground truth.
func (l *opLog) shouldVerify() bool { return l.n%l.verifyEvery == 0 }

func (l *opLog) sampled() bool { return l.traced && l.n%l.spanEvery == 0 }

// enter opens an op or a call. Untraced it reads only the virtual clock.
func (l *opLog) enter(tl *simtime.Timeline) mark {
	if !l.traced {
		return mark{virt: tl.Now()}
	}
	return mark{host: time.Now(), virt: tl.Now(), acct: tl.Stats()}
}

// leave closes a call into a layer: its host time is a sample of that
// layer's entry point, and on a sampled op it becomes a child span.
func (l *opLog) leave(m mark, tl *simtime.Timeline, c callKind) {
	if !l.traced {
		return
	}
	end := time.Now()
	l.host[c] = append(l.host[c], int32(end.Sub(m.host)))
	if l.sampled() {
		l.pending = append(l.pending, l.span(m, end, tl, callNames[c].layer, callNames[c].name))
	}
}

func (l *opLog) span(m mark, end time.Time, tl *simtime.Timeline, layer, name string) span {
	a := tl.Stats()
	return span{
		Op: int64(l.n), Name: name, Layer: layer,
		HostStart: int64(m.host.Sub(l.epoch)), HostEnd: int64(end.Sub(l.epoch)),
		VirtStart: int64(m.virt), VirtEnd: int64(tl.Now()),
		CPU: int64(a.CPU - m.acct.CPU), IO: int64(a.IOWait - m.acct.IOWait),
		Lock: int64(a.LockWait - m.acct.LockWait),
	}
}

// note records the block range an op touched, for the probes.
func (l *opLog) note(ino, lo, hi int64) {
	if l.traced && len(l.sample) < sampleCap {
		l.sample = append(l.sample, access{ino, lo, hi})
	}
}

// finish logs a closed-loop op that began at m on tl.
func (l *opLog) finish(m mark, tl *simtime.Timeline, k opKind, bytes int64, ok bool) {
	if l.sampled() {
		l.flushSpans(l.span(m, time.Now(), tl, "bench", "op"))
	}
	l.record(k, tl.Now().Sub(m.virt), bytes, ok)
}

// flushSpans commits an op span and the child spans collected under it.
func (l *opLog) flushSpans(op span) {
	op.ID, op.Parent = int32(len(l.spans)), -1
	l.spans = append(l.spans, op)
	for _, c := range l.pending {
		c.ID, c.Parent = int32(len(l.spans)), op.ID
		l.spans = append(l.spans, c)
	}
	l.pending = l.pending[:0]
}

// record logs one completed op with its virtual latency.
func (l *opLog) record(k opKind, lat simtime.Duration, bytes int64, ok bool) {
	l.lat = append(l.lat, int64(lat))
	l.kinds = append(l.kinds, k)
	if ok {
		l.bytes += bytes
	} else {
		l.failed++
	}
	l.n++
}

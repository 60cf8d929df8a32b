// Package blockdev models block storage devices in virtual time.
//
// A device is characterized by directional bandwidth, a fixed access
// latency, and a per-command overhead. Bandwidth is a shared serialization
// resource (a simtime.Ledger): concurrent requests queue for transfer
// capacity, which caps aggregate throughput at the device limit. Latency is
// added to each request's completion without occupying the device, letting
// independent requests overlap — the essential property of NVMe queue
// parallelism. Per-command overhead does occupy the device, so many small
// (random) requests cost more than few large (sequential) ones.
//
// The defaults mirror the paper's testbed: a local NVMe SSD with 1.4 GB/s
// read and 0.9 GB/s write bandwidth (§5.1), and a remote NVMe-oF target
// reached over RDMA, which adds network round-trip latency and slightly
// lower effective bandwidth.
package blockdev

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Op distinguishes request directions.
type Op int

const (
	// OpRead transfers data from the device.
	OpRead Op = iota
	// OpWrite transfers data to the device.
	OpWrite
)

// String names the operation.
func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Config describes a device's performance envelope.
type Config struct {
	// Name labels the device in stats output.
	Name string
	// ReadBandwidth and WriteBandwidth are in bytes per (virtual) second.
	ReadBandwidth  int64
	WriteBandwidth int64
	// ReadLatency and WriteLatency are added to each request's completion
	// time without occupying the device.
	ReadLatency  simtime.Duration
	WriteLatency simtime.Duration
	// CmdOverhead occupies the device per request, penalizing many small
	// requests relative to few large ones.
	CmdOverhead simtime.Duration
	// BlockSize is the device block size in bytes.
	BlockSize int64
}

// NVMeConfig returns the paper-testbed local NVMe SSD model
// (1.4 GB/s read, 0.9 GB/s write).
func NVMeConfig() Config {
	return Config{
		Name:           "nvme0",
		ReadBandwidth:  1400 << 20,
		WriteBandwidth: 900 << 20,
		ReadLatency:    80 * simtime.Microsecond,
		WriteLatency:   25 * simtime.Microsecond,
		CmdOverhead:    2 * simtime.Microsecond,
		BlockSize:      4096,
	}
}

// DefaultFabricRTT is the NVMe-oF model's fabric round trip.
const DefaultFabricRTT = 15 * simtime.Microsecond

// RemoteNVMeConfig returns an NVMe-oF (RDMA) remote device model: the same
// media behind ~15µs of fabric round trip and per-command RDMA overhead.
func RemoteNVMeConfig() Config {
	return RemoteNVMeConfigRTT(DefaultFabricRTT)
}

// RemoteNVMeConfigRTT is RemoteNVMeConfig with a custom fabric round
// trip, added to every read and write completion.
func RemoteNVMeConfigRTT(rtt simtime.Duration) Config {
	c := NVMeConfig()
	c.Name = "nvmeof0"
	c.ReadBandwidth = 1200 << 20
	c.WriteBandwidth = 800 << 20
	c.ReadLatency += rtt
	c.WriteLatency += rtt
	c.CmdOverhead += 1 * simtime.Microsecond
	return c
}

// ErrInjected is returned by a device whose fault injector fired.
var ErrInjected = errors.New("blockdev: injected I/O error")

// FaultInjector decides the fate of each device request: nil lets it
// proceed, an error fails it without occupying the device. Implementations
// must be safe for concurrent use and — to keep simulations reproducible
// — should derive decisions from (op, off, bytes) deterministically, not
// from call order. internal/faultinject provides the standard
// implementation; tests may supply stubs.
type FaultInjector interface {
	Inject(op Op, off, bytes int64) error
}

// transienter is implemented by errors that may succeed on retry.
type transienter interface{ Transient() bool }

// IsTransient reports whether err carries a transient classification —
// i.e. retrying the same request may succeed. Persistent faults (and
// errors with no classification) report false.
func IsTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// Device is a virtual-time block device with two-priority scheduling:
// synchronous (blocking) requests are served from a priority lane and
// never wait behind queued prefetch transfers, while asynchronous
// (prefetch/writeback) requests are admitted against the device's combined
// capacity, so prefetching can only use bandwidth that blocking I/O leaves
// idle — the property the paper's congestion control (§4.7) provides.
type Device struct {
	cfg Config
	// bwSync serializes blocking requests against each other.
	bwSync *simtime.Ledger
	// bwAll tracks combined occupancy (sync + async); async requests
	// queue here and callers consult Backlog before submitting more.
	bwAll *simtime.Ledger

	readOps    atomic.Int64
	writeOps   atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64

	// Plug-scheduler accounting: submitted segments, dispatched merged
	// commands, and segments absorbed by merging (see plug.go).
	plugSegs   atomic.Int64
	plugCmds   atomic.Int64
	plugMerged atomic.Int64

	// rec, when non-nil, receives latency/size histograms and byte
	// counters for every request (telemetry opt-in).
	rec *telemetry.Recorder

	// inj, when non-nil, is consulted per request and may fail it
	// (failure injection; see FaultInjector).
	inj FaultInjector

	injFaults atomic.Int64

	// backend is this device's slot in the telemetry per-backend tables
	// when it is a member of a Stack (-1 otherwise): every completed
	// request then also books into its backend's command/byte/latency
	// family, which the audit reconciles against the stack totals.
	backend int
}

// New returns a device with the given configuration.
func New(cfg Config) *Device {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	return &Device{
		cfg:     cfg,
		bwSync:  simtime.NewLedger(cfg.Name + ".bw.sync"),
		bwAll:   simtime.NewLedger(cfg.Name + ".bw"),
		backend: -1,
	}
}

// Config reports the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetTelemetry installs the telemetry recorder (nil disables).
func (d *Device) SetTelemetry(rec *telemetry.Recorder) { d.rec = rec }

// SetFaultInjector installs the fault injector (nil disables). Not safe
// to call concurrently with in-flight requests.
func (d *Device) SetFaultInjector(inj FaultInjector) { d.inj = inj }

// inject consults the injector for a request on [off, off+bytes) and
// counts a failure.
func (d *Device) inject(op Op, off, bytes int64) error {
	if d.inj == nil {
		return nil
	}
	err := d.inj.Inject(op, off, bytes)
	if err != nil {
		d.injFaults.Add(1)
		d.rec.Add(telemetry.CtrDeviceInjectedFaults, 1)
	}
	return err
}

// record reports one completed request to the telemetry recorder:
// submitted at submit, admitted to the transfer ledger at admit, complete
// at done. The global histograms keep their submit-to-complete semantics;
// the per-backend family (when this device belongs to a Stack) splits the
// same interval into queue wait (submit→admit) and service (admit→done).
func (d *Device) record(op Op, bytes int64, submit, admit, done simtime.Time) {
	d.rec.Add(telemetry.CtrDeviceCommands, 1)
	if op == OpWrite {
		d.rec.Observe(telemetry.HistDevWriteLat, int64(done.Sub(submit)))
		d.rec.Observe(telemetry.HistDevWriteBytes, bytes)
		d.rec.Add(telemetry.CtrDeviceWriteBytes, bytes)
	} else {
		d.rec.Observe(telemetry.HistDevReadLat, int64(done.Sub(submit)))
		d.rec.Observe(telemetry.HistDevReadBytes, bytes)
		d.rec.Add(telemetry.CtrDeviceReadBytes, bytes)
	}
	if d.backend >= 0 {
		wait := admit.Sub(submit)
		if wait < 0 {
			wait = 0
		}
		d.rec.ObserveBackend(d.backend, op == OpWrite, bytes,
			int64(wait), int64(done.Sub(admit)))
	}
}

// BlockSize reports the device block size.
func (d *Device) BlockSize() int64 { return d.cfg.BlockSize }

func (d *Device) params(op Op) (bw int64, lat simtime.Duration) {
	if op == OpWrite {
		return d.cfg.WriteBandwidth, d.cfg.WriteLatency
	}
	return d.cfg.ReadBandwidth, d.cfg.ReadLatency
}

func (d *Device) transfer(bytes, bw int64) simtime.Duration {
	return simtime.Duration(float64(bytes) / float64(bw) * float64(simtime.Second))
}

// countPlug accounts segs submitted segments dispatched as cmds device
// commands carrying bytes total. Merging is byte-preserving by
// construction, so one byte total feeds both the segment-side and the
// command-side counters (the audit identity).
func (d *Device) countPlug(segs, cmds, bytes int64) {
	d.plugSegs.Add(segs)
	d.plugCmds.Add(cmds)
	d.plugMerged.Add(segs - cmds)
	d.rec.Add(telemetry.CtrDevicePlugSegments, segs)
	d.rec.Add(telemetry.CtrDevicePlugCommands, cmds)
	d.rec.Add(telemetry.CtrDevicePlugMergedSegments, segs-cmds)
	d.rec.Add(telemetry.CtrDevicePlugSegmentBytes, bytes)
	d.rec.Add(telemetry.CtrDevicePlugCommandBytes, bytes)
}

func (d *Device) account(op Op, bytes int64) {
	if op == OpWrite {
		d.writeOps.Add(1)
		d.writeBytes.Add(bytes)
	} else {
		d.readOps.Add(1)
		d.readBytes.Add(bytes)
	}
}

// Access performs a synchronous request of bytes in direction op on the
// device range starting at byte offset off, at the thread's current
// time, blocking the thread until completion (queueing behind other
// blocking requests + command + transfer + latency). Blocking requests
// take the priority lane: they never wait behind prefetch. An injected
// fault returns its error at once, without occupying the device or
// moving any data.
func (d *Device) Access(tl *simtime.Timeline, op Op, off, bytes int64) error {
	if err := d.inject(op, off, bytes); err != nil {
		return failSync(tl, err, bytes)
	}
	tl.WaitUntil(d.reserveSync(telemetry.Current(tl), op, bytes, 1, tl.Now()), simtime.WaitIO)
	return nil
}

// failSync hands an injected failure to a blocking requester: it marks
// the fault in the trace and returns the error; the device was never
// occupied and no time passes.
func failSync(tl *simtime.Timeline, err error, bytes int64) error {
	telemetry.Current(tl).Child("dev.fault", telemetry.CatStall, tl.Now(), tl.Now()).
		Annotate("bytes", bytes)
	return err
}

// reserveSync is the priority lane's one reservation primitive: a command
// of bytes (carrying nsegs merged segments) submitted at submit, whose
// injector verdict the caller has already consulted (it may pre-flight
// several commands before issuing any). It books both ledgers, the span
// children under sp (nil: untraced), the counters and the telemetry
// record, blocks nobody, and returns the completion time.
func (d *Device) reserveSync(sp *telemetry.Span, op Op, bytes int64, nsegs int, submit simtime.Time) simtime.Time {
	bw, lat := d.params(op)
	hold := d.cfg.CmdOverhead + d.transfer(bytes, bw)
	admit, end := d.bwSync.ReserveAt(submit, hold)
	// Blocking traffic also occupies combined capacity, throttling the
	// bandwidth the async lane can consume.
	d.bwAll.ReserveAt(submit, hold)
	done := end.Add(lat)
	if sp != nil {
		if admit > submit {
			sp.Child("dev.queue", telemetry.CatQueue, submit, admit)
		}
		cs := sp.Child("dev."+op.String(), telemetry.CatDevice, admit, done)
		cs.Annotate("bytes", bytes)
		if nsegs > 1 {
			cs.Annotate("merged_segments", int64(nsegs))
		}
	}
	d.account(op, bytes)
	if d.rec != nil {
		d.record(op, bytes, submit, admit, done)
	}
	return done
}

// reserveAsync is the combined lane's one reservation primitive: device
// time for a command of bytes submitted at `at`, without blocking any
// timeline, with the counters and the telemetry record booked. It returns
// the completion time plus the bandwidth reservation's end (before
// latency) and its hold, the two inputs of a caller's advancing congestion
// horizon. The caller records the completion as the affected pages' ready
// time, and should consult Backlog first to apply congestion control.
func (d *Device) reserveAsync(op Op, bytes int64, at simtime.Time) (done, end simtime.Time, hold simtime.Duration) {
	bw, lat := d.params(op)
	hold = d.cfg.CmdOverhead + d.transfer(bytes, bw)
	admit, end := d.bwAll.ReserveAt(at, hold)
	done = end.Add(lat)
	d.account(op, bytes)
	if d.rec != nil {
		d.record(op, bytes, at, admit, done)
	}
	return done, end, hold
}

// AccessAsync reserves asynchronous device time for a request on the
// device range starting at byte offset off, submitted at `at`, and
// returns its completion. A failed request completes with its error at
// once, without occupying the device.
func (d *Device) AccessAsync(at simtime.Time, op Op, off, bytes int64) (simtime.Time, error) {
	if err := d.inject(op, off, bytes); err != nil {
		return at, err
	}
	done, _, _ := d.reserveAsync(op, bytes, at)
	return done, nil
}

// SyncCost reports what a blocking request of bytes would cost end-to-end
// with an idle priority lane (command + transfer + latency). The VFS uses
// it to bound how long a demand read waits on an in-flight prefetched
// page: the device serves the blocking reader from its priority queues no
// slower than a fresh read would take.
func (d *Device) SyncCost(op Op, bytes int64) simtime.Duration {
	bw, lat := d.params(op)
	return d.cfg.CmdOverhead + d.transfer(bytes, bw) + lat
}

// Backlog reports how far the device's transfer queue extends beyond the
// given time — the basis for the VFS's prefetch congestion control (§4.7:
// prefetch requests that would delay blocking I/O are postponed).
func (d *Device) Backlog(at simtime.Time) simtime.Duration {
	b := d.bwAll.NextFree().Sub(at)
	if b < 0 {
		return 0
	}
	return b
}

// Stats is a snapshot of device counters.
type Stats struct {
	Name       string
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	Busy       simtime.Duration
	// InjectedFaults counts requests failed by the injector; they are
	// excluded from the op/byte counters above.
	InjectedFaults int64
	// PlugSegments/PlugCommands/MergedSegments describe the plug
	// scheduler's merge effectiveness: requests submitted through plugs,
	// device commands dispatched after merging, and the difference.
	PlugSegments   int64
	PlugCommands   int64
	MergedSegments int64
}

// String formats device stats for harness output.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d reads (%.1f MB), %d writes (%.1f MB), busy %v",
		s.Name, s.ReadOps, float64(s.ReadBytes)/(1<<20),
		s.WriteOps, float64(s.WriteBytes)/(1<<20), s.Busy)
}

// Stats snapshots the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Name:           d.cfg.Name,
		ReadOps:        d.readOps.Load(),
		WriteOps:       d.writeOps.Load(),
		ReadBytes:      d.readBytes.Load(),
		WriteBytes:     d.writeBytes.Load(),
		Busy:           d.bwAll.Stats().Hold,
		InjectedFaults: d.injFaults.Load(),
		PlugSegments:   d.plugSegs.Load(),
		PlugCommands:   d.plugCmds.Load(),
		MergedSegments: d.plugMerged.Load(),
	}
}

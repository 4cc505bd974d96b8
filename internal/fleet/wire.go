// Package fleet is the latency observatory's sharded soak farm: a
// coordinator splits one deterministic soak campaign across many
// worker processes (spawned locally or attached over TCP), streams
// per-shard histogram deltas and flight-recorder captures back over a
// length-prefixed wire protocol, and merges them into live aggregate
// snapshots served on /metrics, /snapshot.json and /fleet.json.
//
// The merge is exact, not approximate: shard budgets come from
// soak.ShardBudget and sub-seeds from the same splitmix64 derivation
// the in-process soak uses, histogram deltas telescope
// (obs.Histogram.DeltaSince), and restarted workers deterministically
// fast-forward to their merged checkpoint before streaming — so an
// N-worker fleet's merged snapshot is byte-identical (modulo the
// fleet.* transport counters) to a single-process N-worker soak at the
// same seed, even across worker kills. EquivalenceDigest renders the
// comparable form; the fleet tests and the CI smoke job compare it.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"verikern/internal/kernel"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

// protoVersion guards against mixed coordinator/worker builds: the
// hello carries it and the coordinator rejects mismatches. Version 2
// added the per-frame CRC32 trailer and the hello retry count.
const protoVersion = 2

// maxFrame bounds one wire frame (type byte + JSON payload). Batches
// are a few KiB of sparse histogram deltas; 16 MiB is generous
// headroom for capture-heavy batches while still rejecting a corrupt
// length prefix before allocating.
const maxFrame = 16 << 20

// Message types. Every frame is 4 bytes big-endian length (of
// everything that follows), 1 type byte, a JSON payload, then a 4-byte
// big-endian CRC32 (IEEE) of the type byte + payload. The checksum is
// what lets the coordinator tell a corrupted frame from a hostile or
// broken peer: corrupt frames are detected, counted, and skipped
// (errCorruptFrame) without ever reaching the merge path.
type msgType byte

const (
	// msgHello: worker → coordinator, once per connection.
	msgHello msgType = 1
	// msgAssign: coordinator → worker, the shard lease.
	msgAssign msgType = 2
	// msgBatch: worker → coordinator, one streamed delta window.
	msgBatch msgType = 3
	// msgDrain: coordinator → worker ("flush and exit"), or the lone
	// reply to a hello when no shard is available.
	msgDrain msgType = 4
)

// Hello is the worker's opening message.
type Hello struct {
	Proto int `json:"proto"`
	PID   int `json:"pid"`
	// Retries is how many failed connection attempts preceded this
	// hello (reconnect loop); the coordinator folds it into the
	// fleet.retries counter.
	Retries int `json:"retries,omitempty"`
}

// Spec is the wire form of the fleet-wide workload: the serialisable
// subset of soak.Config (the ReplayPlan never crosses the wire —
// workers rebuild it deterministically from the same analysis
// pipeline when MachineReplay is set).
type Spec struct {
	Label string `json:"label"`
	Arch  string `json:"arch,omitempty"`
	// ConfigKey is the konfig lattice-point hash of the campaign's
	// configuration (soak.Config.ConfigKey). It participates in the
	// coordinator's spec hash — so persisted checkpoint state from a
	// different configuration is refused on resume — and every batch
	// echoes it, so a mixed-config merge is refused at admission.
	ConfigKey         string        `json:"config_key,omitempty"`
	Seed              uint64        `json:"seed"`
	Ops               uint64        `json:"ops"`
	Workers           int           `json:"workers"`
	Kernel            kernel.Config `json:"kernel"`
	Pinned            bool          `json:"pinned,omitempty"`
	BoundCycles       uint64        `json:"bound_cycles,omitempty"`
	MarginPercent     float64       `json:"margin_percent,omitempty"`
	RingCap           int           `json:"ring_cap,omitempty"`
	FlightEvents      int           `json:"flight_events,omitempty"`
	MaxCaptures       int           `json:"max_captures,omitempty"`
	PoolThreads       int           `json:"pool_threads,omitempty"`
	AllocReserveBytes uint32        `json:"alloc_reserve_bytes,omitempty"`
	MachineReplay     bool          `json:"machine_replay,omitempty"`
}

// SpecFromConfig projects a soak.Config onto the wire form.
func SpecFromConfig(cfg soak.Config) Spec {
	return Spec{
		Label:             cfg.Label,
		Arch:              cfg.Arch,
		ConfigKey:         cfg.ConfigKey,
		Seed:              cfg.Seed,
		Ops:               cfg.Ops,
		Workers:           cfg.Workers,
		Kernel:            cfg.Kernel,
		Pinned:            cfg.Pinned,
		BoundCycles:       cfg.BoundCycles,
		MarginPercent:     cfg.MarginPercent,
		RingCap:           cfg.RingCap,
		FlightEvents:      cfg.FlightEvents,
		MaxCaptures:       cfg.MaxCaptures,
		PoolThreads:       cfg.PoolThreads,
		AllocReserveBytes: cfg.AllocReserveBytes,
		MachineReplay:     cfg.MachineReplay,
	}
}

// SoakConfig reconstructs the soak.Config a worker runs.
func (sp Spec) SoakConfig() soak.Config {
	return soak.Config{
		Label:             sp.Label,
		Arch:              sp.Arch,
		ConfigKey:         sp.ConfigKey,
		Seed:              sp.Seed,
		Ops:               sp.Ops,
		Workers:           sp.Workers,
		Kernel:            sp.Kernel,
		Pinned:            sp.Pinned,
		BoundCycles:       sp.BoundCycles,
		MarginPercent:     sp.MarginPercent,
		RingCap:           sp.RingCap,
		FlightEvents:      sp.FlightEvents,
		MaxCaptures:       sp.MaxCaptures,
		PoolThreads:       sp.PoolThreads,
		AllocReserveBytes: sp.AllocReserveBytes,
		MachineReplay:     sp.MachineReplay,
	}
}

// Assign is the coordinator's shard lease: which shard the connection
// owns, how far it has already been merged (the checkpoint the worker
// fast-forwards to), the shard's total op budget, the batch size to
// stream at, and the full workload spec.
type Assign struct {
	Shard      int    `json:"shard"`
	Checkpoint uint64 `json:"checkpoint"`
	Budget     uint64 `json:"budget"`
	BatchOps   int    `json:"batch_ops"`
	Spec       Spec   `json:"spec"`
}

// SourceDelta is one per-source histogram delta within a batch.
type SourceDelta struct {
	Op   uint8              `json:"op"`
	Hist obs.HistogramState `json:"hist"`
}

// Batch is one streamed delta window: everything the shard observed in
// ops (FromOps, ToOps]. Histogram and counter fields are deltas since
// the previous batch, except SimCycles (the shard's cumulative
// simulated clock, which only the latest value of matters) and the
// delta histograms' Max/Min (cumulative extrema — telescoping merges
// still recover the global extrema exactly; see obs.DeltaSince).
type Batch struct {
	Shard int `json:"shard"`
	// Config echoes the spec's ConfigKey: a histogram delta carries no
	// configuration identity of its own (obs.DeltaSince is pure bucket
	// arithmetic), so the batch names the configuration it was observed
	// under and the coordinator refuses mismatches at admission.
	Config  string `json:"config,omitempty"`
	FromOps uint64 `json:"from_ops"`
	ToOps   uint64 `json:"to_ops"`
	// SimCycles is the shard's cumulative simulated clock at ToOps.
	SimCycles uint64 `json:"sim_cycles"`
	// Emitted / Dropped are tracer-ring deltas for the window.
	Emitted uint64 `json:"emitted,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// EventCounts maps event-kind wire names to window deltas.
	EventCounts map[string]uint64 `json:"event_counts,omitempty"`
	// IRQ is the all-sources latency delta for the window.
	IRQ obs.HistogramState `json:"irq"`
	// Sources carries the non-empty per-source deltas, in op order.
	Sources []SourceDelta `json:"sources,omitempty"`
	// Violations / NearMax are sentinel deltas for the window.
	Violations uint64 `json:"violations,omitempty"`
	NearMax    uint64 `json:"near_max,omitempty"`
	// Captures are flight-recorder dumps taken during the window,
	// each already stamped with worker/seed/op identity.
	Captures []soak.Capture `json:"captures,omitempty"`
	// Final marks the shard's last batch: budget reached or drain
	// honoured. The connection closes after it.
	Final bool `json:"final,omitempty"`
}

// errCorruptFrame classifies recoverable frame corruption: the reader
// consumed a whole (claimed) frame but its length, checksum, or type
// byte is wrong. Callers may keep reading the stream — a strike
// counter quarantines connections that never recover — whereas other
// read errors (EOF, deadline, short read) mean the connection is gone.
var errCorruptFrame = errors.New("corrupt frame")

// frameMinLen is the smallest valid frame body: type byte + CRC32.
const frameMinLen = 5

// writeMsg frames and writes one message. Callers must serialise
// writes per connection themselves (the worker writes from one
// goroutine; the coordinator guards each conn with a mutex).
func writeMsg(w io.Writer, t msgType, v any) error {
	var body []byte
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("fleet: marshal %d: %w", t, err)
		}
		body = b
	}
	if len(body)+frameMinLen > maxFrame {
		return fmt.Errorf("fleet: frame type %d exceeds %d bytes", t, maxFrame)
	}
	frame := make([]byte, 4+frameMinLen+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(frameMinLen+len(body)))
	frame[4] = byte(t)
	copy(frame[5:], body)
	sum := crc32.ChecksumIEEE(frame[4 : 5+len(body)])
	binary.BigEndian.PutUint32(frame[5+len(body):], sum)
	_, err := w.Write(frame)
	return err
}

// readMsg reads one framed message and returns its type and payload.
// A frame that arrives complete but fails validation (length out of
// range, CRC mismatch, unknown type byte) returns an error wrapping
// errCorruptFrame; transport failures return the underlying error.
func readMsg(r io.Reader) (msgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < frameMinLen || n > maxFrame {
		return 0, nil, fmt.Errorf("fleet: frame length %d out of range: %w", n, errCorruptFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(buf[n-4:])
	if got := crc32.ChecksumIEEE(buf[:n-4]); got != want {
		return 0, nil, fmt.Errorf("fleet: frame checksum %08x, want %08x: %w", got, want, errCorruptFrame)
	}
	t := msgType(buf[0])
	if t < msgHello || t > msgDrain {
		return 0, nil, fmt.Errorf("fleet: unknown frame type %d: %w", t, errCorruptFrame)
	}
	return t, buf[1 : n-4], nil
}

// armRead sets a read deadline d from now when the stream supports
// deadlines (net.Conn, net.Pipe, chaos wrappers); otherwise a no-op.
// d <= 0 clears any existing deadline, so a disabled frame timeout
// behaves identically to the pre-deadline protocol.
func armRead(r io.Reader, d time.Duration) {
	rd, ok := r.(interface{ SetReadDeadline(time.Time) error })
	if !ok {
		return
	}
	if d <= 0 {
		_ = rd.SetReadDeadline(time.Time{})
		return
	}
	_ = rd.SetReadDeadline(time.Now().Add(d))
}

// armWrite is armRead's write-side twin.
func armWrite(w io.Writer, d time.Duration) {
	wd, ok := w.(interface{ SetWriteDeadline(time.Time) error })
	if !ok {
		return
	}
	if d <= 0 {
		_ = wd.SetWriteDeadline(time.Time{})
		return
	}
	_ = wd.SetWriteDeadline(time.Now().Add(d))
}

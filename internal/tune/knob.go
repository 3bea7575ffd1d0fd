// Package tune implements the online self-tuning controller of the
// adaptive fabric: a restart-free coordinate-descent hill climber with
// epsilon-greedy escape that walks the live knobs of the whole I/O path
// — submission batching, busy-poll budget, queue-depth target, chunk
// size, cache admission and write-back bounds — against a score derived
// from periodic telemetry deltas. The controller never reconnects,
// never pauses traffic, and is fully deterministic under the simulation
// engine's seeded randomness, so convergence is CI-gateable.
package tune

import (
	"fmt"
	"time"

	"nvmeoaf/internal/cache"
)

// Knob is one runtime-adjustable parameter: typed bounds, a step rule,
// and live accessors. Steps are multiplicative (Mul) when Mul > 1,
// additive (Add) otherwise; values always clamp to [Min, Max].
type Knob struct {
	// Name labels the knob in moves and reports.
	Name string
	// Min and Max bound the value (inclusive).
	Min, Max int64
	// Mul is the multiplicative step factor (e.g. 2 doubles/halves);
	// values at or below 1 select the additive step instead.
	Mul float64
	// Add is the additive step, used when Mul <= 1.
	Add int64
	// Get reads the live value; Set applies a new one without restart.
	Get func() int64
	Set func(int64)
}

// clamp bounds v to the knob's range.
func (k *Knob) clamp(v int64) int64 {
	if v < k.Min {
		return k.Min
	}
	if v > k.Max {
		return k.Max
	}
	return v
}

// step returns the neighbouring value in the given direction (+1/-1),
// clamped; a value already at the bound returns itself.
func (k *Knob) step(v int64, dir int) int64 {
	var next int64
	if k.Mul > 1 {
		if dir > 0 {
			next = int64(float64(v) * k.Mul)
			if next == v {
				next = v + 1
			}
		} else {
			next = int64(float64(v) / k.Mul)
		}
	} else {
		add := k.Add
		if add <= 0 {
			add = 1
		}
		if dir > 0 {
			next = v + add
		} else {
			next = v - add
		}
	}
	return k.clamp(next)
}

// TunableQueue is the live-knob surface every session-engine queue
// (tcp, rdma, oaf core) exposes: submission batching, busy-poll budget,
// and the outstanding-command target, all adjustable mid-run.
type TunableQueue interface {
	SetBatchSize(n int)
	LiveBatchSize() int
	SetPollBudget(d time.Duration)
	LivePollBudget() time.Duration
	SetQDTarget(n int)
	QDTarget() int
	QueueDepth() int
}

// ChunkTunable is the optional chunk-size surface (TCP-path queues).
type ChunkTunable interface {
	SetChunkSize(n int)
	LiveChunkSize() int
}

// BatchServer is the serving side of a queue's batch knob: the target's
// completion-reap coalescing depth.
type BatchServer interface {
	SetBatchSize(n int)
}

// QueueKnobs builds the knob set for one queue: batch size (×2 steps),
// busy-poll budget (25 µs steps up to 100 µs), queue-depth target (×2
// steps up to the connection's depth), and — when the queue's transport
// chunks (ChunkTunable) — the chunk size (×2 steps, 16 KiB to 1 MiB).
// Knob names carry the label so multi-queue registries stay readable.
// Batching is negotiated symmetry: when srv is non-nil the batch knob
// also sets the serving side's reap coalescing, as a statically
// configured batch size does at connect time.
func QueueKnobs(label string, q TunableQueue, srv BatchServer) []Knob {
	name := func(s string) string {
		if label == "" {
			return s
		}
		return fmt.Sprintf("%s/%s", label, s)
	}
	maxQD := int64(q.QueueDepth())
	minQD := int64(4)
	if minQD > maxQD {
		minQD = maxQD
	}
	knobs := []Knob{
		{
			Name: name("batch"), Min: 1, Max: 64, Mul: 2,
			Get: func() int64 {
				if b := q.LiveBatchSize(); b > 1 {
					return int64(b)
				}
				return 1
			},
			Set: func(v int64) {
				q.SetBatchSize(int(v))
				if srv != nil {
					srv.SetBatchSize(int(v))
				}
			},
		},
		{
			Name: name("poll_us"), Min: 0, Max: 100, Add: 25,
			Get: func() int64 {
				if d := q.LivePollBudget(); d > 0 {
					return int64(d / time.Microsecond)
				}
				return 0
			},
			Set: func(v int64) { q.SetPollBudget(time.Duration(v) * time.Microsecond) },
		},
		{
			Name: name("qd"), Min: minQD, Max: maxQD, Mul: 2,
			Get: func() int64 { return int64(q.QDTarget()) },
			Set: func(v int64) { q.SetQDTarget(int(v)) },
		},
	}
	if ct, ok := q.(ChunkTunable); ok {
		knobs = append(knobs, Knob{
			Name: name("chunk"), Min: 16 << 10, Max: 1 << 20, Mul: 2,
			Get: func() int64 { return int64(ct.LiveChunkSize()) },
			Set: func(v int64) { ct.SetChunkSize(int(v)) },
		})
	}
	return knobs
}

// CacheKnobs builds the knob set for a target-side cache: the
// write-back dirty bound (percent of capacity, 15-point steps) and the
// large-request bypass threshold (×2 steps, 16 KiB to 2 MiB).
func CacheKnobs(label string, c *cache.Cache) []Knob {
	name := func(s string) string {
		if label == "" {
			return s
		}
		return fmt.Sprintf("%s/%s", label, s)
	}
	return []Knob{
		{
			Name: name("dirty_pct"), Min: 10, Max: 100, Add: 15,
			Get: func() int64 {
				// Round-trip through the live watermark keeps Get/Set
				// consistent even after clamping.
				bytes := c.MaxDirtyBytes()
				cap := c.CapBytes()
				if cap <= 0 {
					return 100
				}
				return (bytes*100 + cap/2) / cap
			},
			Set: func(v int64) { c.SetMaxDirtyFrac(float64(v) / 100) },
		},
		{
			Name: name("bypass"), Min: 16 << 10, Max: 2 << 20, Mul: 2,
			Get: func() int64 { return int64(c.LiveBypassBytes()) },
			Set: func(v int64) { c.SetBypassBytes(int(v)) },
		},
	}
}

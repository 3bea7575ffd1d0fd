package tune

import (
	"math/rand"
	"time"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
)

// Config parameterizes a Controller.
type Config struct {
	// Period is the sampling/decision interval (default 20 ms of
	// virtual time).
	Period time.Duration
	// Telemetry is the sink sampled every period (required).
	Telemetry *telemetry.Sink
}

// The search's fixed constants. The score of an epoch is its completion
// rate (client.completions per second): IOPS.
const (
	// improveFrac is the acceptance hysteresis: a trial is kept only
	// when its score beats the baseline by at least this fraction.
	// Hysteresis is what keeps simulator-level noise from walking the
	// knobs randomly.
	improveFrac = 0.02
	// epsilon is the exploration probability: each new trial picks a
	// uniformly random knob and direction instead of the scheduled
	// coordinate with this probability, the bandit-style escape from
	// local optima.
	epsilon = 0.05
	// phaseFrac is the phase-change detector: once the search has
	// quiesced, a score deviating from the quiet baseline by more than
	// this fraction re-opens the search.
	phaseFrac = 0.25
	// maxMoves bounds the recorded trajectory: the controller keeps
	// tuning past it, later moves are dropped from the report, never
	// from the search.
	maxMoves = 4096
)

// Move is one decision in the tuner's trajectory.
type Move struct {
	// AtNs is the virtual time of the decision.
	AtNs int64 `json:"at_ns"`
	// Knob is the knob stepped ("" for phase-reset entries).
	Knob string `json:"knob,omitempty"`
	// From and To are the knob values before and after the trial step.
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Score is the trial epoch's score; Baseline the score it had to
	// beat.
	Score    float64 `json:"score"`
	Baseline float64 `json:"baseline"`
	// Accepted reports whether the step was kept (false = reverted).
	Accepted bool `json:"accepted"`
	// Kind is "climb", "explore", or "phase-reset".
	Kind string `json:"kind"`
}

// Report is the tuner's exported outcome: the move trajectory, the
// per-epoch score series, and the final knob settings.
type Report struct {
	Epochs      int              `json:"epochs"`
	Accepted    int              `json:"accepted"`
	Reverted    int              `json:"reverted"`
	Explored    int              `json:"explored"`
	PhaseResets int              `json:"phase_resets"`
	Quiesced    bool             `json:"quiesced"`
	Moves       []Move           `json:"moves"`
	Scores      []float64        `json:"scores"`
	Final       map[string]int64 `json:"final"`
}

// controller states.
const (
	stateMeasure = iota // establishing a baseline, no trial in flight
	stateTrial          // a knob step is live, next epoch judges it
	stateQuiet          // search quiesced, watching for a phase change
)

// Controller runs the hill-climb as an engine daemon. All state is
// touched only from the engine goroutine; the knobs it turns are
// atomics, so foreign-goroutine observers (or a paranoid -race test)
// are safe.
type Controller struct {
	e     *sim.Engine
	cfg   Config
	knobs []Knob
	rng   *rand.Rand

	prev     telemetry.Snapshot
	havePrev bool
	started  sim.Time

	state     int
	knobIdx   int    // coordinate being climbed
	dir       int    // +1 / -1
	trialOld  int64  // value to restore on revert
	trialKind string // "climb" or "explore"
	baseline  float64
	// sweepFails counts consecutive rejected trials; a full sweep of
	// 2×len(knobs) rejections quiesces the search.
	sweepFails int
	// stopped makes the daemon exit at its next wakeup, so the engine's
	// event queue can drain once the workload is done.
	stopped bool

	report Report
}

// NewController builds a controller over the given knobs. Knobs from
// several layers (queues, caches) are simply concatenated — coordinate
// descent does not care which subsystem a coordinate belongs to.
func NewController(e *sim.Engine, cfg Config, knobs []Knob) *Controller {
	if cfg.Period <= 0 {
		cfg.Period = 20 * time.Millisecond
	}
	return &Controller{
		e:     e,
		cfg:   cfg,
		knobs: knobs,
		rng:   e.Rand("tune"),
		dir:   +1,
		report: Report{
			Final: map[string]int64{},
		},
	}
}

// Start launches the controller daemon; it samples and decides every
// Period until the engine drains. Restart-free by construction: every
// decision is a Set on a live knob.
func (c *Controller) Start() {
	c.started = c.e.Now()
	c.e.GoDaemon("tuner", c.loop)
}

// Report returns the trajectory so far. Call it after the engine run
// (or from engine context) — it reads controller state.
func (c *Controller) Report() Report {
	r := c.report
	r.Quiesced = c.state == stateQuiet
	for i := range c.knobs {
		r.Final[c.knobs[i].Name] = c.knobs[i].Get()
	}
	return r
}

// Stop makes the controller exit at its next wakeup. The tuner daemon
// re-arms a timer every period, which would keep a drain-to-completion
// engine run alive forever; callers stop it once the workload ends.
// Knobs keep their tuned values.
func (c *Controller) Stop() { c.stopped = true }

func (c *Controller) loop(p *sim.Proc) {
	for !c.stopped {
		p.Sleep(c.cfg.Period)
		if c.stopped {
			return
		}
		snap := c.cfg.Telemetry.SnapshotAt(int64(p.Now()))
		if !c.havePrev {
			c.prev, c.havePrev = snap, true
			continue
		}
		delta := snap.DeltaSince(c.prev)
		c.prev = snap
		if delta.Reset {
			// A reconnect/restart replaced the counters mid-interval;
			// the delta is garbage for scoring. Skip the epoch.
			continue
		}
		// The first period after Start is warm-up: connection setup and
		// queue ramp would poison the first baseline.
		if p.Now() < c.started.Add(c.cfg.Period) {
			continue
		}
		score := delta.Rate(telemetry.CtrCompletions.String())
		c.report.Epochs++
		c.report.Scores = append(c.report.Scores, score)
		c.decide(int64(p.Now()), score)
	}
}

// decide advances the state machine by one scored epoch.
func (c *Controller) decide(atNs int64, score float64) {
	if len(c.knobs) == 0 {
		return
	}
	switch c.state {
	case stateMeasure:
		// An idle path (no completions) cannot be climbed: scores stay
		// zero and every move would look like a tie. Wait for traffic.
		if score <= 0 {
			return
		}
		c.baseline = score
		c.beginTrial()
	case stateTrial:
		k := &c.knobs[c.knobIdx]
		improved := score > c.baseline*(1+improveFrac)
		mv := Move{
			AtNs: atNs, Knob: k.Name,
			From: c.trialOld, To: k.Get(),
			Score: score, Baseline: c.baseline,
			Accepted: improved, Kind: c.trialKind,
		}
		if improved {
			c.baseline = score
			c.report.Accepted++
			c.sweepFails = 0
			c.push(mv)
			// Momentum: keep stepping the same knob/direction while it
			// pays; if the knob hit its bound, move on.
			if !c.beginTrialOn(c.knobIdx, c.dir) {
				c.advance()
				c.beginTrial()
			}
			return
		}
		k.Set(c.trialOld)
		c.report.Reverted++
		c.sweepFails++
		c.push(mv)
		// Slowly track the (reverted-to) operating point so a drifting
		// workload does not freeze the acceptance bar in the past.
		c.baseline = 0.9*c.baseline + 0.1*score
		if c.sweepFails >= 2*len(c.knobs) {
			c.state = stateQuiet
			return
		}
		c.advance()
		c.beginTrial()
	case stateQuiet:
		// Watch for a workload phase change: a quiet score far from the
		// converged baseline re-opens the search from scratch.
		dev := score - c.baseline
		if dev < 0 {
			dev = -dev
		}
		if c.baseline > 0 && dev > phaseFrac*c.baseline {
			c.push(Move{
				AtNs: atNs, Score: score, Baseline: c.baseline,
				Kind: "phase-reset", Accepted: true,
			})
			c.report.PhaseResets++
			c.state = stateMeasure
			c.sweepFails = 0
			c.knobIdx, c.dir = 0, +1
			return
		}
		// Keep the quiet baseline fresh so slow drift is not mistaken
		// for a phase change.
		c.baseline = 0.8*c.baseline + 0.2*score
	}
}

// beginTrial opens the next trial: with probability epsilon an
// exploration step on a random knob/direction, otherwise the scheduled
// coordinate (skipping coordinates already pinned at their bound).
func (c *Controller) beginTrial() {
	if c.rng.Float64() < epsilon {
		idx := c.rng.Intn(len(c.knobs))
		dir := +1
		if c.rng.Intn(2) == 0 {
			dir = -1
		}
		if c.beginTrialOn(idx, dir) {
			c.dir = dir
			c.trialKind = "explore"
			c.report.Explored++
			return
		}
	}
	for range c.knobs {
		if c.beginTrialOn(c.knobIdx, c.dir) {
			return
		}
		c.advance()
	}
	// Every coordinate is pinned at a bound in its scheduled direction;
	// wait in measure state for the next epoch.
	c.state = stateMeasure
}

// beginTrialOn applies one step of knob idx in direction dir; it
// reports false when the knob is already at that bound.
func (c *Controller) beginTrialOn(idx, dir int) bool {
	k := &c.knobs[idx]
	cur := k.Get()
	next := k.step(cur, dir)
	if next == cur {
		return false
	}
	c.knobIdx = idx
	c.trialOld = cur
	c.trialKind = "climb"
	k.Set(next)
	c.state = stateTrial
	return true
}

// advance moves to the next coordinate: flip direction first, then
// rotate to the next knob.
func (c *Controller) advance() {
	if c.dir > 0 {
		c.dir = -1
		return
	}
	c.dir = +1
	c.knobIdx = (c.knobIdx + 1) % len(c.knobs)
}

// push appends a move, bounded by maxMoves.
func (c *Controller) push(m Move) {
	if len(c.report.Moves) < maxMoves {
		c.report.Moves = append(c.report.Moves, m)
	}
}

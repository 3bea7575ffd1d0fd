package oaf

import (
	"fmt"
	"time"

	"nvmeoaf/internal/tune"
)

// TunerOptions configures an attached self-tuner.
type TunerOptions struct {
	// Period is the sampling/decision epoch in virtual time: every period
	// the tuner scores the last interval's completion rate and accepts or
	// reverts one knob step (0: internal/tune's default, 20 ms).
	Period time.Duration
}

// Tuner is an online self-tuning controller running over the cluster's
// live I/O path: a restart-free coordinate-descent hill-climb (with
// epsilon-greedy escapes) over every tunable knob of the connected
// queues — submission/completion batching, busy-poll budget, queue-depth
// target, TCP chunk size — and of the target-side block caches (dirty
// watermark, size-bypass threshold). Every step is applied through a
// live setter on the running connection; the tuner never reconnects.
type Tuner struct {
	ctl *tune.Controller
}

// AttachTuner builds a tuner over every queue connected so far (plus all
// target-side caches) and starts it. Call it from inside Run, after the
// application has connected its queues:
//
//	c.Run(func(ctx *oaf.Ctx) error {
//	    q, _ := ctx.Connect("nqn.demo", oaf.ConnectOptions{Batch: 1})
//	    tn, _ := ctx.Cluster().AttachTuner(oaf.TunerOptions{})
//	    // ... drive I/O; the tuner climbs while the workload runs ...
//	    rep := tn.Report() // trajectory, scores, final knob values
//	    ...
//	})
//
// Queues connected after the call are not tuned (attach again for a new
// set). The tuner stops automatically when Run's application function
// returns; knobs keep their tuned values.
func (c *Cluster) AttachTuner(opts TunerOptions) (*Tuner, error) {
	var knobs []tune.Knob
	for i, q := range c.queues {
		tq, ok := q.inner.(tune.TunableQueue)
		if !ok {
			continue
		}
		knobs = append(knobs, tune.QueueKnobs(fmt.Sprintf("q%d", i), tq, q.srvTarget)...)
	}
	for i, ca := range c.w.Caches {
		knobs = append(knobs, tune.CacheKnobs(fmt.Sprintf("cache%d", i), ca)...)
	}
	if len(knobs) == 0 {
		return nil, fmt.Errorf("oaf: nothing to tune — attach the tuner after connecting queues")
	}
	t := &Tuner{ctl: tune.NewController(c.w.Engine, tune.Config{
		Period:    opts.Period,
		Telemetry: c.w.Tel,
	}, knobs)}
	t.ctl.Start()
	c.tuners = append(c.tuners, t)
	return t, nil
}

// Stop halts the tuner at its next epoch; knobs keep their tuned values.
// Run calls it automatically when the application function returns.
func (t *Tuner) Stop() { t.ctl.Stop() }

// Report returns the tuner's trajectory so far: every accepted/reverted
// move, the per-epoch score series, and the final knob settings.
func (t *Tuner) Report() tune.Report { return t.ctl.Report() }

// stopTuners halts every attached tuner so the engine can drain once the
// application finishes.
func (c *Cluster) stopTuners() {
	for _, t := range c.tuners {
		t.Stop()
	}
}

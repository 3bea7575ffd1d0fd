package tune

import (
	"math"
	"reflect"
	"testing"
	"time"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
)

func TestKnobStepMulAndClamp(t *testing.T) {
	k := Knob{Min: 1, Max: 64, Mul: 2}
	if got := k.step(16, +1); got != 32 {
		t.Fatalf("16 up = %d, want 32", got)
	}
	if got := k.step(16, -1); got != 8 {
		t.Fatalf("16 down = %d, want 8", got)
	}
	if got := k.step(64, +1); got != 64 {
		t.Fatalf("64 up = %d, want clamp at 64", got)
	}
	if got := k.step(1, -1); got != 1 {
		t.Fatalf("1 down = %d, want clamp at 1", got)
	}
	a := Knob{Min: 0, Max: 100, Add: 25}
	if got := a.step(50, +1); got != 75 {
		t.Fatalf("50 +25 = %d", got)
	}
	if got := a.step(0, -1); got != 0 {
		t.Fatalf("0 down = %d, want clamp at 0", got)
	}
	if got := a.step(90, +1); got != 100 {
		t.Fatalf("90 +25 = %d, want clamp at 100", got)
	}
}

// surfaceRig builds an engine whose telemetry completion rate is a
// synthetic concave function of one knob value: a pump daemon adds
// rate(knob) completions every millisecond, so the controller sees a
// clean performance surface and its search can be verified exactly.
type surfaceRig struct {
	e    *sim.Engine
	tel  *telemetry.Sink
	val  int64
	rate func(int64) int64
	ctl  *Controller
}

func newSurfaceRig(seed int64, cfg Config, rate func(int64) int64) *surfaceRig {
	r := &surfaceRig{
		e:    sim.NewEngine(seed),
		tel:  telemetry.New(),
		val:  1,
		rate: rate,
	}
	knob := Knob{
		Name: "k", Min: 1, Max: 64, Mul: 2,
		Get: func() int64 { return r.val },
		Set: func(v int64) { r.val = v },
	}
	r.e.GoDaemon("pump", func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
			r.tel.Add(telemetry.CtrCompletions, r.rate(r.val))
		}
	})
	cfg.Telemetry = r.tel
	r.ctl = NewController(r.e, cfg, []Knob{knob})
	r.ctl.Start()
	return r
}

// peakedAt returns a strictly concave-in-log2 rate surface maxed at
// the given knob value.
func peakedAt(peak int64, coeff float64) func(int64) int64 {
	return func(v int64) int64 {
		d := math.Log2(float64(v)) - math.Log2(float64(peak))
		return int64(1000 - coeff*d*d)
	}
}

func TestControllerClimbsToOptimum(t *testing.T) {
	r := newSurfaceRig(1, Config{Period: 10 * time.Millisecond}, peakedAt(16, 40))
	if err := r.e.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rep := r.ctl.Report()
	if r.val != 16 {
		t.Fatalf("converged to %d, want 16 (report: %+v)", r.val, rep)
	}
	if !rep.Quiesced {
		t.Fatalf("search did not quiesce: %+v", rep)
	}
	if rep.Accepted == 0 || rep.Reverted == 0 {
		t.Fatalf("expected both accepts and reverts: %+v", rep)
	}
	if rep.Final["k"] != 16 {
		t.Fatalf("final snapshot %v", rep.Final)
	}
}

func TestControllerPhaseResetReconverges(t *testing.T) {
	// Phase one peaks at 16; at t=1.5s the surface flips to peak at 4
	// with the old optimum scoring ~32% below the quiet baseline —
	// the controller must detect the phase change and re-climb.
	flipAt := sim.Time(1500 * time.Millisecond)
	var r *surfaceRig
	phase1, phase2 := peakedAt(16, 40), peakedAt(4, 80)
	r = newSurfaceRig(2, Config{Period: 10 * time.Millisecond}, func(v int64) int64 {
		if r.e.Now() >= flipAt {
			return phase2(v)
		}
		return phase1(v)
	})
	if err := r.e.RunUntil(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rep := r.ctl.Report()
	if rep.PhaseResets == 0 {
		t.Fatalf("no phase reset detected: %+v", rep)
	}
	if r.val != 4 {
		t.Fatalf("re-converged to %d, want 4 (report: %+v)", r.val, rep)
	}
	if !rep.Quiesced {
		t.Fatalf("post-flip search did not quiesce: %+v", rep)
	}
}

func TestControllerDeterministicTrajectory(t *testing.T) {
	run := func() Report {
		r := newSurfaceRig(7, Config{Period: 10 * time.Millisecond}, peakedAt(8, 50))
		if err := r.e.RunUntil(sim.Time(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return r.ctl.Report()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Moves, b.Moves) {
		t.Fatalf("trajectories diverge:\n%+v\n%+v", a.Moves, b.Moves)
	}
	if !reflect.DeepEqual(a.Scores, b.Scores) {
		t.Fatal("score series diverge")
	}
}

func TestControllerIdlePathUntouched(t *testing.T) {
	// No completions -> no score -> the controller must not move knobs.
	r := newSurfaceRig(3, Config{Period: 10 * time.Millisecond}, func(int64) int64 { return 0 })
	if err := r.e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rep := r.ctl.Report()
	if len(rep.Moves) != 0 || r.val != 1 {
		t.Fatalf("idle path was tuned: val=%d moves=%+v", r.val, rep.Moves)
	}
}

// fakeQueue implements TunableQueue (and optionally ChunkTunable).
type fakeQueue struct {
	batch, qd, depth int
	poll             time.Duration
	chunk            int
}

func (f *fakeQueue) SetBatchSize(n int)            { f.batch = n }
func (f *fakeQueue) LiveBatchSize() int            { return f.batch }
func (f *fakeQueue) SetPollBudget(d time.Duration) { f.poll = d }
func (f *fakeQueue) LivePollBudget() time.Duration { return f.poll }
func (f *fakeQueue) SetQDTarget(n int)             { f.qd = n }
func (f *fakeQueue) QDTarget() int                 { return f.qd }
func (f *fakeQueue) QueueDepth() int               { return f.depth }

type fakeChunkQueue struct {
	fakeQueue
}

func (f *fakeChunkQueue) SetChunkSize(n int) { f.chunk = n }
func (f *fakeChunkQueue) LiveChunkSize() int { return f.chunk }

func TestQueueKnobsRoundTrip(t *testing.T) {
	q := &fakeQueue{batch: 4, qd: 32, depth: 64, poll: 50 * time.Microsecond}
	knobs := QueueKnobs("q0", q, nil)
	if len(knobs) != 3 {
		t.Fatalf("plain queue knobs = %d, want 3 (no chunk)", len(knobs))
	}
	byName := map[string]*Knob{}
	for i := range knobs {
		byName[knobs[i].Name] = &knobs[i]
	}
	b := byName["q0/batch"]
	if b == nil || b.Get() != 4 {
		t.Fatalf("batch knob: %+v", byName)
	}
	b.Set(b.step(b.Get(), +1))
	if q.batch != 8 {
		t.Fatalf("batch set -> %d, want 8", q.batch)
	}
	p := byName["q0/poll_us"]
	if p.Get() != 50 {
		t.Fatalf("poll knob = %d, want 50", p.Get())
	}
	p.Set(75)
	if q.poll != 75*time.Microsecond {
		t.Fatalf("poll set -> %v", q.poll)
	}
	qd := byName["q0/qd"]
	if qd.Max != 64 || qd.Get() != 32 {
		t.Fatalf("qd knob: max=%d get=%d", qd.Max, qd.Get())
	}

	cq := &fakeChunkQueue{fakeQueue{batch: 1, qd: 16, depth: 16, chunk: 128 << 10}}
	knobs = QueueKnobs("", cq, nil)
	if len(knobs) != 4 {
		t.Fatalf("chunked queue knobs = %d, want 4", len(knobs))
	}
	if knobs[3].Name != "chunk" || knobs[3].Get() != 128<<10 {
		t.Fatalf("chunk knob: %s=%d", knobs[3].Name, knobs[3].Get())
	}

	// With a serving side the batch knob drives both halves of the
	// connection.
	srv := &fakeServer{batch: 1}
	knobs = QueueKnobs("q1", q, srv)
	if knobs[0].Name != "q1/batch" {
		t.Fatalf("first knob = %s, want q1/batch", knobs[0].Name)
	}
	knobs[0].Set(16)
	if q.batch != 16 || srv.batch != 16 {
		t.Fatalf("batch set 16 -> queue %d, server %d; want both 16", q.batch, srv.batch)
	}
}

type fakeServer struct{ batch int }

func (f *fakeServer) SetBatchSize(n int) { f.batch = n }

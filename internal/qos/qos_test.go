package qos

import (
	"math/rand"
	"testing"
	"time"

	"nvmeoaf/internal/telemetry"
)

func testRegistry(t *testing.T, specs ...Spec) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, sp := range specs {
		if err := reg.Add(sp); err != nil {
			t.Fatalf("Add(%+v): %v", sp, err)
		}
	}
	return reg
}

func TestSpecValidation(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []Spec{
		{},                                      // no name
		{Name: "a,b"},                           // comma collides with hostNQN encoding
		{Name: "x", RateBps: -1},                // negative rate
		{Name: "x", RateBps: 2e12},              // above the arithmetic bound
		{Name: "x", RateBps: 1, BurstBytes: -1}, // negative burst
	} {
		if err := reg.Add(bad); err == nil {
			t.Errorf("Add(%+v): expected error", bad)
		}
	}
	if err := reg.Add(Spec{Name: "ok", RateBps: 100 << 20}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	sp, ok := reg.Lookup("ok")
	if !ok || sp.BurstBytes <= 0 {
		t.Fatalf("Lookup(ok) = %+v, %v; want defaulted burst", sp, ok)
	}
	// 10ms of 100 MiB/s > 256 KiB, so the burst tracks the rate.
	if want := int64(100<<20) / 100; sp.BurstBytes != want {
		t.Fatalf("burst = %d, want %d", sp.BurstBytes, want)
	}
}

func TestParseSLO(t *testing.T) {
	for in, want := range map[string]SLO{
		"": SLONone, "none": SLONone, "latency": LatencySensitive,
		"Latency-Sensitive": LatencySensitive, "throughput": Throughput,
		"tput": Throughput, "batch": Batch, "bulk": Batch,
	} {
		got, err := ParseSLO(in)
		if err != nil || got != want {
			t.Errorf("ParseSLO(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSLO("gold"); err == nil {
		t.Error("ParseSLO(gold): expected error")
	}
	if s := Batch.String(); s != "batch" {
		t.Errorf("Batch.String() = %q", s)
	}
	if poll, batch := SLONone.Steer(0, 0); poll != 0 || batch != 0 {
		t.Errorf("SLONone.Steer(0, 0) = %v, %d; want both left unset", poll, batch)
	}
	if poll, batch := LatencySensitive.Steer(0, 0); poll <= 0 || batch != 1 {
		t.Errorf("LatencySensitive.Steer(0, 0) = %v, %d", poll, batch)
	}
	if poll, batch := Batch.Steer(0, 0); poll != 0 || batch <= 16 {
		t.Errorf("Batch.Steer(0, 0) = %v, %d", poll, batch)
	}
	// A knob the connection pinned wins over the tier; the other is filled.
	if poll, batch := LatencySensitive.Steer(0, 8); poll <= 0 || batch != 8 {
		t.Errorf("LatencySensitive.Steer(0, 8) = %v, %d; want the pinned batch 8", poll, batch)
	}
	if poll, batch := Batch.Steer(50*time.Microsecond, 0); poll != 50*time.Microsecond || batch <= 16 {
		t.Errorf("Batch.Steer(50µs, 0) = %v, %d; want the pinned poll budget", poll, batch)
	}
}

func TestNilAndUnlimitedAdmitEverything(t *testing.T) {
	var nilB *Bucket
	if !nilB.TryTake(0, 1<<30) {
		t.Fatal("nil bucket must admit")
	}
	nilB.Penalize(0, 1<<20) // must not panic
	if nilB.Limited() {
		t.Fatal("nil bucket is not limited")
	}
	var nilSh *Shaper
	if b := nilSh.Bucket("x", 0); b != nil {
		t.Fatal("nil shaper must hand out nil buckets")
	}
	if err := nilSh.Conservation().Check(); err != nil {
		t.Fatalf("nil shaper conservation: %v", err)
	}

	sh := NewShaper("t", testRegistry(t), nil)
	b := sh.Bucket("unregistered", 0)
	if b.Limited() {
		t.Fatal("unregistered tenant must be unlimited")
	}
	if !b.TryTake(0, 1<<40) {
		t.Fatal("unlimited bucket must admit")
	}
	if err := sh.Conservation().Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestBucketRefillAndThrottle(t *testing.T) {
	reg := testRegistry(t, Spec{Name: "a", RateBps: 1 << 20, BurstBytes: 4096})
	sh := NewShaper("t", reg, nil)
	b := sh.Bucket("a", 0)

	// Full initial burst admits immediately, then the bucket is dry.
	if !b.TryTake(0, 4096) {
		t.Fatal("initial burst should admit")
	}
	if b.TryTake(0, 1) {
		t.Fatal("dry bucket with empty pool should throttle")
	}
	if b.Throttles != 1 {
		t.Fatalf("Throttles = %d, want 1", b.Throttles)
	}

	// 1 MiB/s refill: after ~4ms the 4096-byte take fits again.
	wait := b.WaitNs(0, 4096)
	if wait < 1_000_000 { // clamped to maxWait = 1ms
		t.Fatalf("WaitNs = %d, want clamp at 1ms", wait)
	}
	at := int64(4096) * nsPerSec / (1 << 20)
	if b.TryTake(at-1_000, 4096) {
		t.Fatal("should still be short just before the refill point")
	}
	if !b.TryTake(at+1_000, 4096) {
		t.Fatal("refill should cover the take")
	}
	if err := sh.Conservation().Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestBorrowingMovesIdleCapacity(t *testing.T) {
	tel := telemetry.New()
	reg := testRegistry(t,
		Spec{Name: "idle", RateBps: 8 << 20, BurstBytes: 1 << 20},
		Spec{Name: "busy", RateBps: 1 << 20, BurstBytes: 64 << 10},
	)
	sh := NewShaper("t", reg, tel)
	idle := sh.Bucket("idle", 0)
	busy := sh.Bucket("busy", 0)

	// Drain busy's initial burst.
	if !busy.TryTake(0, 64<<10) {
		t.Fatal("busy initial burst")
	}
	// Idle sits out 500ms: its bucket is already full, so ~4 MiB of its
	// refill spills into the ledger.
	now := int64(500_000_000)
	idle.refill(now)
	if sh.pool == 0 {
		t.Fatal("idle tenant's surplus refill should pool")
	}
	if idle.Lent == 0 {
		t.Fatal("idle bucket should record lending")
	}

	// Busy's own refill over 500ms is 512 KiB; a 1 MiB take only admits
	// because it borrows the other half from the ledger.
	if !busy.TryTake(now, 1<<20) {
		t.Fatal("busy should admit by borrowing")
	}
	if busy.Borrowed == 0 {
		t.Fatal("busy bucket should record borrowing")
	}
	if err := sh.Conservation().Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}

	// Telemetry mirrored the ledger traffic.
	snap := tel.Snapshot()
	if snap.Tenants["idle"].Counters["tenant.tokens_lent"] == 0 {
		t.Fatal("telemetry should record lending")
	}
	if snap.Tenants["busy"].Counters["tenant.tokens_borrowed"] == 0 {
		t.Fatal("telemetry should record borrowing")
	}

	// MergeStats folds the per-tenant activity.
	stats := MergeStats(sh)
	if len(stats) != 2 || stats[0].Name != "busy" || stats[1].Name != "idle" {
		t.Fatalf("MergeStats = %+v", stats)
	}
}

func TestPenalizeDebitsOnlyAvailable(t *testing.T) {
	reg := testRegistry(t, Spec{Name: "a", RateBps: 1 << 20, BurstBytes: 4096})
	sh := NewShaper("t", reg, nil)
	b := sh.Bucket("a", 0)
	b.Penalize(0, 10_000) // more than the 4096 balance
	if b.tokens != 0 {
		t.Fatalf("tokens = %d, want 0", b.tokens)
	}
	if err := sh.Conservation().Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestConservationProperty drives random takes, penalties, and idle gaps
// across several tenants and asserts after every step that borrowing
// created and destroyed zero tokens.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		reg := NewRegistry()
		n := 2 + rng.Intn(4)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			rate := int64(1+rng.Intn(64)) << 20
			if rng.Intn(5) == 0 {
				rate = 0 // some tenants unlimited
			}
			if err := reg.Add(Spec{Name: names[i], RateBps: rate,
				BurstBytes: int64(1+rng.Intn(256)) << 10}); err != nil {
				t.Fatal(err)
			}
		}
		sh := NewShaper("prop", reg, nil)
		now := int64(0)
		for step := 0; step < 2000; step++ {
			now += int64(rng.Intn(5_000_000)) // up to 5ms between events
			b := sh.Bucket(names[rng.Intn(n)], now)
			sz := int64(1+rng.Intn(1<<10)) * 512
			switch rng.Intn(10) {
			case 0:
				b.Penalize(now, sz)
			case 1:
				b.WaitNs(now, sz)
			case 2:
				now += int64(time.Second) // long idle gap → lending
			default:
				b.TryTake(now, sz)
			}
			if err := sh.Conservation().Check(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		c := sh.Conservation()
		if c.Minted == 0 {
			t.Fatalf("trial %d: nothing minted", trial)
		}
	}
}

// TestPoolBounded ensures the ledger never exceeds its cap (one burst
// per limited tenant) no matter how long everyone idles.
func TestPoolBounded(t *testing.T) {
	reg := testRegistry(t,
		Spec{Name: "a", RateBps: 100 << 20, BurstBytes: 1 << 20},
		Spec{Name: "b", RateBps: 100 << 20, BurstBytes: 1 << 20},
	)
	sh := NewShaper("t", reg, nil)
	a := sh.Bucket("a", 0)
	b := sh.Bucket("b", 0)
	for i := int64(1); i <= 100; i++ {
		now := i * int64(time.Second)
		a.refill(now)
		b.refill(now)
		if sh.pool > sh.poolCap {
			t.Fatalf("pool %d exceeds cap %d", sh.pool, sh.poolCap)
		}
	}
	if sh.pool != sh.poolCap {
		t.Fatalf("pool %d should saturate at cap %d after long idle", sh.pool, sh.poolCap)
	}
	if err := sh.Conservation().Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestRegistryOwnsEnforcementPoints pins the registry as the one home of
// a deployment's enforcement points: one label gives one shaper, the
// stats merge across every point, and the conservation check covers
// every point (a ledger broken at the second point built is caught).
func TestRegistryOwnsEnforcementPoints(t *testing.T) {
	var none *Registry
	if none.Shaper("host", nil) != nil || NewRegistry().Shaper("host", nil) != nil {
		t.Fatal("a registry without tenants built an enforcement point")
	}
	if none.Stats() != nil || none.Check() != nil {
		t.Fatal("a nil registry reports stats or a broken ledger")
	}

	reg := testRegistry(t,
		Spec{Name: "a", RateBps: 1 << 20, BurstBytes: 8192},
		Spec{Name: "b", RateBps: 1 << 20, BurstBytes: 8192})
	host, tgt := reg.Shaper("host:h0", nil), reg.Shaper("target:nqn", nil)
	if host == nil || tgt == nil || host == tgt {
		t.Fatalf("two labels gave shapers %p and %p, want two distinct points", host, tgt)
	}
	if again := reg.Shaper("host:h0", nil); again != host {
		t.Fatal("one label gave two shapers")
	}

	host.Bucket("a", 0).TryTake(0, 4096)
	tgt.Bucket("a", 0).TryTake(0, 2048)
	tgt.Bucket("b", 0).TryTake(0, 1024)
	stats := reg.Stats()
	if len(stats) != 2 || stats[0].Name != "a" || stats[0].Taken != 6144 || stats[1].Name != "b" || stats[1].Taken != 1024 {
		t.Fatalf("merged stats = %+v, want a taken 6144 across both points, b 1024", stats)
	}
	if err := reg.Check(); err != nil {
		t.Fatalf("balanced ledgers: %v", err)
	}

	tgt.minted++ // a token from nowhere at the second point
	if err := reg.Check(); err == nil {
		t.Fatal("Check missed a leak at the second enforcement point")
	}
}

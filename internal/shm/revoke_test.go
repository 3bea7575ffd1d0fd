package shm

import (
	"testing"
	"time"

	"nvmeoaf/internal/sim"
)

func TestRevokeFailsNewClaims(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree, ClaimRoundRobin)
	e.Go("io", func(p *sim.Proc) {
		if s := r.Claim(p, H2C); !s.Valid() {
			t.Fatal("claim before revoke failed")
		} else {
			s.Release()
		}
		r.Revoke()
		if !r.Revoked() {
			t.Fatal("region not marked revoked")
		}
		if s := r.Claim(p, H2C); s.Valid() {
			t.Fatal("claim on a revoked region succeeded")
		}
		if s := r.Claim(p, C2H); s.Valid() {
			t.Fatal("C2H claim on a revoked region succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeWakesBlockedClaimers(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 1, ModeLockFree, ClaimRoundRobin)
	woke := false
	e.Go("blocker", func(p *sim.Proc) {
		if s := r.Claim(p, H2C); !s.Valid() {
			t.Fatal("first claim failed")
		}
		// Hold the only slot forever: the next claimer must block until
		// the revocation wakes it.
	})
	e.Go("claimer", func(p *sim.Proc) {
		s := r.Claim(p, H2C) // blocks: no free slot
		if s.Valid() {
			t.Error("claim returned a slot from a revoked region")
		}
		woke = true
	})
	e.After(10*time.Microsecond, r.Revoke)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("blocked claimer never woke after revocation")
	}
}

func TestOpenFailsAfterRevoke(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree, ClaimRoundRobin)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, C2H)
		if !s.Valid() {
			t.Fatal("claim failed")
		}
		r.Revoke()
		if _, err := r.Open(C2H, s.Index); err == nil {
			t.Fatal("open on a revoked region succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryReleaseIsTolerant(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree, ClaimRoundRobin)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		if !s.TryRelease() {
			t.Fatal("first TryRelease of a busy slot failed")
		}
		// Already free: the tolerant release reports false rather than
		// panicking like Release does — the other side may have freed
		// the slot after a timeout handed ownership over ambiguously.
		if s.TryRelease() {
			t.Fatal("second TryRelease of a free slot succeeded")
		}
		if r.Busy(H2C) != 0 {
			t.Fatalf("busy = %d after release", r.Busy(H2C))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleCannotFreeNewClaim: the peer opens and frees A's slot,
// and claim B gets the same slot. A's handle is stale from then on:
// TryRelease through it must report false and leave B's claim alone, and
// Release through it must panic.
func TestStaleHandleCannotFreeNewClaim(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 1, ModeLockFree, ClaimRoundRobin)
	e.Go("io", func(p *sim.Proc) {
		a := r.Claim(p, H2C)
		peer, err := r.Open(H2C, a.Index)
		if err != nil {
			t.Fatal(err)
		}
		if !peer.TryRelease() {
			t.Fatal("the peer could not free A's slot")
		}
		b := r.Claim(p, H2C)
		if b.Index != a.Index {
			t.Fatalf("B claimed slot %d, want A's %d", b.Index, a.Index)
		}
		if a.TryRelease() {
			t.Fatal("TryRelease through A's stale handle freed B's claim")
		}
		if _, err := r.Open(H2C, b.Index); err != nil {
			t.Fatalf("B's slot after A's stale TryRelease: %v", err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Release through A's stale handle did not panic")
				}
			}()
			a.Release()
		}()
		if r.Busy(H2C) != 1 {
			t.Fatalf("busy = %d with B's claim held, want 1", r.Busy(H2C))
		}
		b.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotHandlesAllocateNothing: a claim, the peer's open and the
// release move value handles only.
func TestSlotHandlesAllocateNothing(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree, ClaimRoundRobin)
	var allocs float64
	e.Go("io", func(p *sim.Proc) {
		dst := make([]Slot, 0, 2)
		allocs = testing.AllocsPerRun(100, func() {
			s := r.Claim(p, H2C)
			peer, err := r.Open(H2C, s.Index)
			if err != nil {
				t.Fatal(err)
			}
			peer.Release()
			dst = r.ClaimN(p, C2H, 2, dst[:0])
			for _, s := range dst {
				s.Release()
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("claim/open/release: %v allocations per cycle, want 0", allocs)
	}
}

func TestOnRevokeCallbacks(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree, ClaimRoundRobin)
	calls := 0
	r.OnRevoke(func() { calls++ })
	r.Revoke()
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	r.Revoke() // idempotent: no second round of callbacks
	if calls != 1 {
		t.Fatalf("second revoke re-ran callbacks (%d)", calls)
	}
	// Registering on an already-revoked region fires immediately.
	r.OnRevoke(func() { calls++ })
	if calls != 2 {
		t.Fatalf("late registration did not fire immediately (%d)", calls)
	}
}

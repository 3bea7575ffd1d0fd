package rdma

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

func TestRegCacheLRUAndPinning(t *testing.T) {
	c := newRegCache(3 * regPageSize)
	pool := regKey{id: 1}
	c.Preregister(pool, 2*regPageSize)
	if hit, _ := c.Touch(pool, 0); !hit {
		t.Fatal("pre-registered region must hit")
	}
	a, b := regKey{id: 10}, regKey{id: 11}
	if hit, _ := c.Touch(a, 100); hit {
		t.Fatal("first touch of a must miss")
	}
	if hit, _ := c.Touch(a, 100); !hit {
		t.Fatal("second touch of a must hit")
	}
	// Inserting b exceeds capacity (2 pinned pages + a + b = 4 > 3):
	// the LRU unpinned region (a) evicts, never the pinned pool.
	if hit, evicted := c.Touch(b, 100); hit || evicted != 1 {
		t.Fatalf("touch b: hit=%v evicted=%d, want miss evicting 1", hit, evicted)
	}
	if hit, _ := c.Touch(pool, 0); !hit {
		t.Fatal("pinned pool must survive eviction pressure")
	}
	if hit, _ := c.Touch(a, 100); hit {
		t.Fatal("a was evicted and must miss again")
	}
	c.Invalidate(b)
	if hit, _ := c.Touch(b, 100); hit {
		t.Fatal("invalidated region must miss")
	}
	c.Invalidate(pool)
	if hit, _ := c.Touch(pool, 0); !hit {
		t.Fatal("Invalidate must not drop a pinned region")
	}
	if c.Hits == 0 || c.Misses == 0 || c.Evictions == 0 || c.PreregBytes != 2*regPageSize {
		t.Fatalf("counters: %+v", *c)
	}
}

func TestRegCacheSteadyStateNeverRegistersInline(t *testing.T) {
	// With the fast path on, full RDMA56G registration parameters, and
	// pool-backed (virtual payload) I/O, every post hits the connect-time
	// pre-registered pool: zero misses where the legacy model would
	// sprinkle multi-millisecond stalls.
	params := model.RDMA56G()
	params.MemRegFloorProb = 0.01 // would force ~20 legacy misses in 2000 ops
	r := newRig(t, false, params)
	tel := telemetry.New()
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8, Telemetry: tel},
			Params:      params, RegCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096}).Wait(p); res.Err() != nil {
				t.Fatal(res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Counters["rdma.reg_hits"] < 2000 {
		t.Errorf("reg_hits = %d, want >= 2000", snap.Counters["rdma.reg_hits"])
	}
	if snap.Counters["rdma.reg_misses"] != 0 {
		t.Errorf("reg_misses = %d, want 0", snap.Counters["rdma.reg_misses"])
	}
	if want := int64(8 * poolBufBytes); snap.Counters["rdma.prereg_bytes"] != want {
		t.Errorf("prereg_bytes = %d, want %d", snap.Counters["rdma.prereg_bytes"], want)
	}
}

func TestRegCacheCallerBufferMissThenHit(t *testing.T) {
	// An unregistered caller buffer pays one registration on first use
	// (the mechanistic reason for a miss), then hits on every reuse.
	params := model.RDMA56G()
	r := newRig(t, true, params)
	tel := telemetry.New()
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 4, Telemetry: tel},
			Params:      params, RegCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		first := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096, Data: buf}).Wait(p)
		if first.Err() != nil {
			t.Fatal(first.Err())
		}
		if n := tel.Counter(telemetry.CtrRDMARegMisses); n != 1 {
			t.Fatalf("first caller-buffer post: %d misses, want 1", n)
		}
		if min := time.Duration(float64(params.MemRegCost) * 0.7); first.Latency < min {
			t.Fatalf("first post latency %v should include registration (>= %v)", first.Latency, min)
		}
		second := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096, Data: buf}).Wait(p)
		if second.Err() != nil {
			t.Fatal(second.Err())
		}
		if n := tel.Counter(telemetry.CtrRDMARegMisses); n != 1 {
			t.Fatalf("buffer reuse missed again: %d misses", n)
		}
		if second.Latency >= params.MemRegCost {
			t.Fatalf("reuse latency %v should not include registration", second.Latency)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegCacheEvictionChurn(t *testing.T) {
	// A cache smaller than the working set of caller buffers churns:
	// distinct regions evict each other and re-register on return.
	params := model.RDMA56G()
	params.MemRegCost = 50 * time.Microsecond // keep the test fast
	// Pool (4 x 128 KiB pinned) + one 4 KiB region fits; two do not.
	params.RegCacheBytes = 4*poolBufBytes + 4096
	r := newRig(t, true, params)
	tel := telemetry.New()
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 4, Telemetry: tel},
			Params:      params, RegCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs := [2][]byte{make([]byte, 4096), make([]byte, 4096)}
		for i := 0; i < 6; i++ {
			if res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096, Data: bufs[i%2]}).Wait(p); res.Err() != nil {
				t.Fatal(res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Counters["rdma.reg_misses"] != 6 {
		t.Errorf("reg_misses = %d, want 6 (every alternation re-registers)", snap.Counters["rdma.reg_misses"])
	}
	if snap.Counters["rdma.reg_evictions"] < 5 {
		t.Errorf("reg_evictions = %d, want >= 5", snap.Counters["rdma.reg_evictions"])
	}
}

func TestMergeAdjacentReadsByteExact(t *testing.T) {
	// Eight physically contiguous 4K reads in one doorbell train fold
	// into one work request; the single completion payload splits back
	// byte-exact into each member's buffer.
	r := newRig(t, true, noRegParams())
	tel := telemetry.New()
	const n, bs = 8, 4096
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 16, Telemetry: tel},
			Params:      noRegParams(), BatchSize: n, Merge: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n*bs)
		for i := range want {
			want[i] = byte(i * 7 % 253)
		}
		if res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: len(want), Data: want}).Wait(p); res.Err() != nil {
			t.Fatal(res.Err())
		}
		ios := make([]*transport.IO, n)
		for i := range ios {
			ios[i] = &transport.IO{Offset: int64(i) * bs, Size: bs, Data: make([]byte, bs)}
		}
		for i, fut := range transport.SubmitBatch(p, c, ios, nil) {
			if res := fut.Wait(p); res.Err() != nil {
				t.Fatalf("read %d: %v", i, res.Err())
			}
			if !bytes.Equal(ios[i].Data, want[i*bs:(i+1)*bs]) {
				t.Fatalf("read %d: payload mismatch after merge split", i)
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Counters["rdma.merged_ops"]; got != n-1 {
		t.Errorf("merged_ops = %d, want %d (one train folded to one WR)", got, n-1)
	}
}

func TestMergeVirtualWritesAndGaps(t *testing.T) {
	// Virtual-payload writes merge per contiguous run: {0,1,2} and {5,6}
	// fold (two groups, three entries saved); the lone block at 9 posts
	// unmerged. Every member still completes individually.
	r := newRig(t, false, noRegParams())
	tel := telemetry.New()
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 16, Telemetry: tel},
			Params:      noRegParams(), BatchSize: 8, Merge: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks := []int64{0, 1, 2, 5, 6, 9}
		ios := make([]*transport.IO, len(blocks))
		for i, blk := range blocks {
			ios[i] = &transport.IO{Write: true, Offset: blk * 4096, Size: 4096}
		}
		for i, fut := range transport.SubmitBatch(p, c, ios, nil) {
			if res := fut.Wait(p); res.Err() != nil {
				t.Fatalf("write %d: %v", i, res.Err())
			}
		}
		if c.Completed != int64(len(blocks)) {
			t.Errorf("completed %d, want %d", c.Completed, len(blocks))
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Counters["rdma.merged_ops"]; got != 3 {
		t.Errorf("merged_ops = %d, want 3 ({0,1,2} folds 2, {5,6} folds 1)", got)
	}
}

func TestDynDoorbellController(t *testing.T) {
	w := &rdmaWire{cfg: &ClientConfig{DynDoorbell: true}, dynTrain: 1}
	// Backlog doubles the train up to the occupancy (and the cap).
	if got := w.TrainSize(16); got != 16 {
		t.Fatalf("TrainSize(16) = %d, want 16", got)
	}
	// A deeper backlog keeps growing toward maxTrain (64).
	if got := w.TrainSize(200); got != 64 {
		t.Fatalf("TrainSize(200) = %d, want 64 (cap)", got)
	}
	// Drain shrinks multiplicatively and clamps to the queue.
	if got := w.TrainSize(3); got != 3 {
		t.Fatalf("TrainSize(3) = %d, want 3", got)
	}
	if got := w.TrainSize(0); got != 1 {
		t.Fatalf("TrainSize(0) = %d, want 1", got)
	}
	// Off means defer to the configured BatchSize.
	w.cfg.DynDoorbell = false
	if got := w.TrainSize(32); got != 0 {
		t.Fatalf("TrainSize with DynDoorbell off = %d, want 0", got)
	}
}

func TestDynDoorbellEndToEnd(t *testing.T) {
	// A bursty batch over the dynamic controller completes everything and
	// records multi-entry trains in batch.submit_size without a fixed
	// BatchSize configured.
	r := newRig(t, false, noRegParams())
	tel := telemetry.New()
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 64, Telemetry: tel},
			Params:      noRegParams(), DynDoorbell: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ios := make([]*transport.IO, 64)
		for i := range ios {
			ios[i] = &transport.IO{Offset: int64(i) * 4096, Size: 4096}
		}
		for i, fut := range transport.SubmitBatch(p, c, ios, nil) {
			if res := fut.Wait(p); res.Err() != nil {
				t.Fatalf("io %d: %v", i, res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	bsz, ok := snap.Histograms["batch.submit_size"]
	if !ok || bsz.Max < 2 {
		t.Fatalf("dynamic doorbell never coalesced: %+v", bsz)
	}
	if saved := snap.Counters["rdma.doorbells_saved"]; saved <= 0 {
		t.Errorf("doorbells_saved = %d, want > 0", saved)
	}
}

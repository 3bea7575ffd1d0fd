package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const capacity = 64 << 20

// rig builds a store backed by a real-data namespace over the adaptive
// fabric.
func rig(t *testing.T, seed int64) (*sim.Engine, func(p *sim.Proc) *blockfs.File) {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem("nqn.kv")
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "kv", capacity, ssdParams, true, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fabric := core.NewFabric(e, model.DefaultSHM())
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: "nqn.kv"},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 32)
	return e, func(p *sim.Proc) *blockfs.File {
		c, err := core.Connect(p, link.A, core.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: "nqn.kv", QueueDepth: 32},
			Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return blockfs.New(e, c, capacity)
	}
}

func TestPutGetDeleteOverwrite(t *testing.T) {
	e, open := rig(t, 1)
	e.Go("app", func(p *sim.Proc) {
		s := Open(open(p), Config{GroupCommitBytes: 8 << 10})
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(s.Put(p, "alpha", []byte("one")))
		must(s.Put(p, "beta", []byte("two")))
		// Buffered read (pre-flush).
		v, ok, err := s.Get(p, "alpha")
		must(err)
		if !ok || string(v) != "one" {
			t.Fatalf("buffered get: %q %v", v, ok)
		}
		must(s.Flush(p))
		// Durable read.
		v, ok, err = s.Get(p, "beta")
		must(err)
		if !ok || string(v) != "two" {
			t.Fatalf("durable get: %q %v", v, ok)
		}
		// Overwrite.
		must(s.Put(p, "alpha", []byte("uno")))
		must(s.Flush(p))
		v, _, err = s.Get(p, "alpha")
		must(err)
		if string(v) != "uno" {
			t.Fatalf("overwrite lost: %q", v)
		}
		// Delete.
		must(s.Delete(p, "beta"))
		must(s.Flush(p))
		if _, ok, _ := s.Get(p, "beta"); ok {
			t.Fatal("deleted key still readable")
		}
		if s.Len() != 1 {
			t.Fatalf("len %d", s.Len())
		}
		if err := s.Put(p, "", []byte("x")); err == nil {
			t.Fatal("empty key accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	e, open := rig(t, 2)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		s := Open(f, Config{GroupCommitBytes: 4 << 10})
		for i := 0; i < 50; i++ {
			if err := s.Put(p, fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		s.Delete(p, "key-07")
		s.Put(p, "key-03", []byte("updated"))
		if err := s.Flush(p); err != nil {
			t.Fatal(err)
		}
		// "Crash": drop the in-memory store; recover by log scan.
		r, err := Recover(p, f, Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 49 {
			t.Fatalf("recovered %d keys, want 49", r.Len())
		}
		if _, ok, _ := r.Get(p, "key-07"); ok {
			t.Fatal("tombstone not honoured on recovery")
		}
		v, ok, err := r.Get(p, "key-03")
		if err != nil || !ok || string(v) != "updated" {
			t.Fatalf("recovered key-03 = %q %v %v", v, ok, err)
		}
		v, _, _ = r.Get(p, "key-42")
		if !bytes.Equal(v, bytes.Repeat([]byte{42}, 100)) {
			t.Fatal("recovered value mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionReclaimsGarbage(t *testing.T) {
	e, open := rig(t, 3)
	e.Go("app", func(p *sim.Proc) {
		s := Open(open(p), Config{GroupCommitBytes: 16 << 10})
		// Overwrite the same keys many times: the log grows, live set
		// stays small.
		for round := 0; round < 20; round++ {
			for i := 0; i < 10; i++ {
				if err := s.Put(p, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(round)}, 1000)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Flush(p)
		usedBefore := s.logUsage()
		if err := s.Compact(p); err != nil {
			t.Fatal(err)
		}
		if s.logUsage() >= usedBefore/5 {
			t.Fatalf("compaction reclaimed little: %d -> %d", usedBefore, s.logUsage())
		}
		// Data survives compaction.
		for i := 0; i < 10; i++ {
			v, ok, err := s.Get(p, fmt.Sprintf("k%d", i))
			if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{19}, 1000)) {
				t.Fatalf("k%d after compaction: %v %v", i, ok, err)
			}
		}
		// And the store keeps working in the new zone.
		if err := s.Put(p, "post", []byte("compact")); err != nil {
			t.Fatal(err)
		}
		s.Flush(p)
		v, _, _ := s.Get(p, "post")
		if string(v) != "compact" {
			t.Fatal("post-compaction put lost")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitCoalescesWrites(t *testing.T) {
	e, open := rig(t, 4)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		s := Open(f, Config{GroupCommitBytes: 64 << 10})
		for i := 0; i < 100; i++ {
			if err := s.Put(p, fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{1}, 200)); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush(p)
		// ~21KB of records with a 64KB group commit: a handful of fabric
		// ops, not one per put.
		if f.Ops > 10 {
			t.Fatalf("group commit issued %d fabric ops for 100 puts", f.Ops)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMatchesMapProperty(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
		Del bool
	}
	f := func(ops []op) bool {
		e, open := rig(t, 77)
		ok := true
		e.Go("prop", func(p *sim.Proc) {
			s := Open(open(p), Config{GroupCommitBytes: 4 << 10})
			ref := map[string][]byte{}
			for _, o := range ops {
				key := fmt.Sprintf("k%d", o.Key%16)
				if o.Del {
					if err := s.Delete(p, key); err != nil {
						ok = false
						return
					}
					delete(ref, key)
					continue
				}
				val := o.Val
				if len(val) > 4096 {
					val = val[:4096]
				}
				if err := s.Put(p, key, val); err != nil {
					ok = false
					return
				}
				ref[key] = append([]byte(nil), val...)
			}
			s.Flush(p)
			if s.Len() != len(ref) {
				ok = false
				return
			}
			for k, want := range ref {
				got, found, err := s.Get(p, k)
				if err != nil || !found || !bytes.Equal(got, want) {
					ok = false
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneFullRejected(t *testing.T) {
	e, open := rig(t, 5)
	e.Go("app", func(p *sim.Proc) {
		s := Open(open(p), Config{})
		// The zone holds capacity/2 = 32 MB; the 65th 512K value must
		// overflow it.
		var err error
		for i := 0; i < 80 && err == nil; i++ {
			err = s.Put(p, fmt.Sprintf("big%d", i), make([]byte, 512<<10))
		}
		if err == nil {
			t.Fatal("zone overflow accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

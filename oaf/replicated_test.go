package oaf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// replicatedCluster registers n member targets "nqn.rep.<i>" on separate
// hosts (remote pairs: the replication layer rides optimized TCP).
func replicatedCluster(t *testing.T, seed int64, n int) *Cluster {
	t.Helper()
	c := NewCluster(Config{Seed: seed})
	if err := c.AddHost("app"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("stor%d", i)
		if err := c.AddHost(host); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTarget(host, fmt.Sprintf("nqn.rep.%d", i), TargetConfig{
			SSDCapacity: 64 << 20, RetainData: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestConnectReplicatedQuorumReadYourWrite(t *testing.T) {
	c := replicatedCluster(t, 11, 3)
	err := c.Run(func(ctx *Ctx) error {
		rq, err := ctx.On("app").ConnectReplicated("nqn.rep", ReplicaOptions{
			Replicas: 3, WriteQuorum: 2, ExtentSize: 64 << 10,
		})
		if err != nil {
			return err
		}
		defer rq.Close()
		for i := 0; i < 8; i++ {
			off := int64(i) * (64 << 10)
			data := bytes.Repeat([]byte{byte(0x30 + i)}, 8192)
			if _, err := rq.Write(off, data); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
			res, err := rq.Read(off, len(data))
			if err != nil {
				return fmt.Errorf("read %d: %w", i, err)
			}
			if !bytes.Equal(res.Data, data) {
				t.Errorf("offset %d: read-your-write violated", off)
			}
		}
		st := rq.Stats()
		if st.Writes != 8 || st.Reads != 8 {
			t.Errorf("stats writes=%d reads=%d, want 8/8", st.Writes, st.Reads)
		}
		if st.Replicas != 3 || st.WriteQuorum != 2 {
			t.Errorf("effective config R=%d W=%d", st.Replicas, st.WriteQuorum)
		}
		for i, h := range rq.MemberHealth() {
			if h != HealthHealthy {
				t.Errorf("member %d health = %v", i, h)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The replication layer's state rides the cluster snapshot.
	snap := c.Snapshot()
	if len(snap.Replicated) != 1 {
		t.Fatalf("snapshot has %d replicated namespaces, want 1", len(snap.Replicated))
	}
	if snap.Replicated[0].Namespace != "nqn.rep" {
		t.Errorf("snapshot namespace = %q", snap.Replicated[0].Namespace)
	}
	if got := snap.Telemetry.Counters["cluster.writes"]; got != 8 {
		t.Errorf("telemetry cluster.writes = %d, want 8", got)
	}
}

func TestConnectReplicatedAutoDiscoversMembers(t *testing.T) {
	c := replicatedCluster(t, 12, 4)
	err := c.Run(func(ctx *Ctx) error {
		rq, err := ctx.On("app").ConnectReplicated("nqn.rep", ReplicaOptions{})
		if err != nil {
			return err
		}
		defer rq.Close()
		if got := len(rq.Members()); got != 4 {
			t.Errorf("auto-discovered %d members, want 4", got)
		}
		if st := rq.Stats(); st.Seats != 4 {
			t.Errorf("seats = %d, want 4", st.Seats)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedSurvivesScheduledTargetCrash: with R=3 W=2 over four
// members, a scheduled crash of one target mid-workload must not lose a
// single acked write or serve a stale read; the spare-less cluster heals
// the revived member through background re-replication, and the fault
// log rides the snapshot.
func TestReplicatedSurvivesScheduledTargetCrash(t *testing.T) {
	const extent = 64 << 10
	c := replicatedCluster(t, 13, 4)
	if err := c.ScheduleTargetCrash("nqn.rep.1", 2*time.Millisecond, 8*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	acked := map[int64][]byte{}
	err := c.Run(func(ctx *Ctx) error {
		rq, err := ctx.On("app").ConnectReplicated("nqn.rep", ReplicaOptions{
			Replicas: 3, WriteQuorum: 2, ExtentSize: extent,
		})
		if err != nil {
			return err
		}
		defer rq.Close()
		for i := 0; i < 40; i++ {
			off := int64(i%10) * extent
			data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			// App-level retry: a write that fails (mid-crash quorum dip)
			// was never acked and may be retried; only acked writes are
			// held to the no-loss bar.
			var werr error
			for attempt := 0; attempt < 20; attempt++ {
				if _, werr = rq.Write(off, data); werr == nil {
					break
				}
				ctx.Sleep(200 * time.Microsecond)
			}
			if werr != nil {
				return fmt.Errorf("write %d never acked: %w", i, werr)
			}
			acked[off] = data
			// Read-your-write holds immediately, even mid-failover.
			res, err := rq.Read(off, len(data))
			if err != nil {
				return fmt.Errorf("read-after-write %d: %w", i, err)
			}
			if !bytes.Equal(res.Data, data) {
				t.Errorf("write %d: stale read at offset %d", i, off)
			}
			ctx.Sleep(150 * time.Microsecond)
		}
		// Let the restarted target be re-detected and rebuilt, then
		// verify every acked write one final time.
		ctx.Sleep(15 * time.Millisecond)
		for off, data := range acked {
			res, err := rq.Read(off, len(data))
			if err != nil {
				return fmt.Errorf("final read at %d: %w", off, err)
			}
			if !bytes.Equal(res.Data, data) {
				t.Errorf("final read at %d lost acked bytes", off)
			}
		}
		st := rq.Stats()
		if st.ReplicaDowns == 0 {
			t.Error("crash was never detected as a replica death")
		}
		if st.StaleExtents != 0 {
			t.Errorf("rebuild backlog = %d after heal window, want 0", st.StaleExtents)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap.Faults) < 2 {
		t.Fatalf("fault log has %d events, want crash+restart", len(snap.Faults))
	}
	if snap.Faults[0].Kind != "target-crash" || snap.Faults[1].Kind != "target-restart" {
		t.Errorf("fault log = %v", snap.Faults)
	}
}

// Regression: a command that the replicated namespace's 500 µs member
// time-out reaped while its capsule sat out a ~2 ms cold memory
// registration must not go out late under its old CID — the CID has been
// reissued by then, and the stale completion used to be matched to its
// next owner, so a read "succeeded" with no data (seed 6) or with another
// read's bytes (seed 1) on this exact write-then-read pass, which is
// oafbench's pre-flight check at the namespace's own time-out.
func TestReplicatedRDMAReadsSurviveMemRegStallPastTimeout(t *testing.T) {
	const ioSize, offsets, capacity = 4096, 64, 256 << 20
	for _, seed := range []int64{1, 6} {
		c := NewCluster(Config{Seed: seed})
		if err := c.AddHost("client"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			host := fmt.Sprintf("storage%d", i)
			if err := c.AddHost(host); err != nil {
				t.Fatal(err)
			}
			if err := c.AddTarget(host, fmt.Sprintf("nqn.verify.%d", i), TargetConfig{SSDCapacity: capacity, RetainData: true}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		slots := rng.Perm(capacity / ioSize)[:offsets]
		pattern := make([][]byte, offsets)
		for i := range pattern {
			pattern[i] = make([]byte, ioSize)
			rng.Read(pattern[i])
		}
		err := c.Run(func(ctx *Ctx) error {
			q, err := ctx.On("client").ConnectReplicated("nqn.verify", ReplicaOptions{
				Targets: 4, Replicas: 3,
				Connect: ConnectOptions{Fabric: FabricRDMA56G, QueueDepth: 32, CommandTimeout: 500 * time.Microsecond},
			})
			if err != nil {
				return err
			}
			defer q.Close()
			for i, s := range slots {
				if _, err := q.Write(int64(s)*ioSize, pattern[i]); err != nil {
					return fmt.Errorf("write %d: %w", i, err)
				}
			}
			for i, s := range slots {
				res, err := q.Read(int64(s)*ioSize, ioSize)
				if err != nil {
					return fmt.Errorf("read %d: %w", i, err)
				}
				if !bytes.Equal(res.Data, pattern[i]) {
					return fmt.Errorf("read %d at offset %d returned other bytes than were written", i, int64(s)*ioSize)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

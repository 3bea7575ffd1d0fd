package cluster

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// watchIndex installs the stale-index oracle on c: after every visit of
// the index (rebuild passes, staleCount, Stats) a brute-force staleRepl
// scan of every extent must find each stale replica on an extent whose
// bit is set, unless staleAll stands for every bit.
func watchIndex(t *testing.T, c *Cluster, visits *int) {
	c.indexProbe = func() {
		*visits++
		if c.staleAll {
			return
		}
		for i, st := range c.extentList {
			if c.staleBits[i>>6]&(1<<uint(i&63)) != 0 {
				continue
			}
			for ri := range st.repl {
				if c.staleRepl(st, ri) {
					t.Errorf("at %v: extent %d (position %d) replica %d is stale but not in the index",
						c.e.Now(), st.idx, i, ri)
				}
			}
		}
	}
}

// The stale index holds every stale replica through spare promotion,
// revival, overlapping writes and a rolling crash schedule. Each of the
// three marks (a quorum ack advancing committed, a seat changing hands,
// a member coming back) is needed by at least one of these scenarios.
func TestRebuildIndexCoversStaleReplicas(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"spare promotion", TestSpareInheritsSeatAndRebuildCopies},
		{"revival", TestRevivedMemberResumesSeatAndCatchesUp},
		{"overlapping writes", TestOverlappingWritesApplyInVersionOrder},
		{"rolling crash", rollingCrash},
	} {
		t.Run(sc.name, func(t *testing.T) {
			visits := 0
			onRig = func(c *Cluster) { watchIndex(t, c, &visits) }
			defer func() { onRig = nil }()
			sc.run(t)
			if visits == 0 {
				t.Error("the index was never visited")
			}
		})
	}
}

// rollingCrash runs integration.TestClusterChaosRollingCrash's schedule
// over fake members: 4 seats and a spare, R=3/W=2, 120 writes round-robin
// over 16 extents while members 0, 1 and 2 go down in turn (the last two
// outages overlap, so one seat rides vacant), then a heal window. Every
// acked write must read back, right away and after the heal.
func rollingCrash(t *testing.T) {
	const extent, offsets = 64 << 10, 16
	e := sim.NewEngine(21)
	c, fakes := rig(t, e, 5, offsets*extent, Options{
		Seats: 4, Replicas: 3, WriteQuorum: 2, ExtentSize: extent, ProbeInterval: ProbePeriod,
	})
	for _, cr := range []struct {
		member  int
		at, out time.Duration
	}{
		{0, 2 * time.Millisecond, 6 * time.Millisecond},
		{1, 16 * time.Millisecond, 8 * time.Millisecond},
		{2, 20 * time.Millisecond, 6 * time.Millisecond},
	} {
		f := fakes[cr.member]
		e.After(cr.at, func() { f.down = true })
		e.After(cr.at+cr.out, func() { f.down = false })
	}
	acked := make([]byte, offsets)
	readBack := func(p *sim.Proc, off int64, want byte) {
		buf := make([]byte, 4096)
		r := transport.Submit(p, c, &transport.IO{Offset: off, Size: len(buf), Data: buf}).Wait(p)
		if r.Status != nvme.StatusSuccess || !bytes.Equal(buf, pattern(want, len(buf))) {
			t.Errorf("read at %d: %v, or not the acked bytes", off, r.Status)
		}
	}
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		for i := 0; i < 120; i++ {
			off := int64(i%offsets) * extent
			b := byte(i%251 + 1)
			ok := false
			for attempt := 0; attempt < 40 && !ok; attempt++ {
				r := transport.Submit(p, c, &transport.IO{Write: true, Offset: off, Size: 4096, Data: pattern(b, 4096)}).Wait(p)
				if ok = r.Status == nvme.StatusSuccess; !ok {
					p.Sleep(200 * time.Microsecond)
				}
			}
			if !ok {
				t.Fatalf("write %d never acked", i)
			}
			acked[i%offsets] = b
			readBack(p, off, b)
			p.Sleep(250 * time.Microsecond)
		}
		p.Sleep(20 * time.Millisecond)
		for i, b := range acked {
			readBack(p, int64(i)*extent, b)
		}
		st := c.Stats()
		if st.StaleExtents != 0 || st.ReplicaDowns < 3 || st.ReplicaUps == 0 || st.RebuildExtents == 0 || st.DegradedIOs == 0 {
			t.Errorf("rolling crash did not heal as scheduled: %+v", st)
		}
	})
}

// The stale index makes a healthy cluster's rebuild work per write
// independent of the namespace span: after 64 or after 4096 touched
// extents, the same writes cost exactly the same staleRepl calls (a full
// scan per pass would cost 3 per touched extent).
func TestStaleChecksPerWriteIndependentOfSpan(t *testing.T) {
	checks := func(touched int) int64 {
		e := sim.NewEngine(3)
		c, _ := rig(t, e, 3, touched*transport.BlockSize, Options{Replicas: 3, WriteQuorum: 2, ExtentSize: transport.BlockSize})
		var n int64
		run(t, e, func(p *sim.Proc) {
			defer c.Close()
			write := func(ext int) {
				io := &transport.IO{Write: true, Offset: int64(ext) * transport.BlockSize, Size: transport.BlockSize}
				if r := transport.Submit(p, c, io).Wait(p); r.Status != nvme.StatusSuccess {
					t.Fatalf("write to extent %d: %v", ext, r.Status)
				}
			}
			for ext := 0; ext < touched; ext++ {
				write(ext)
			}
			p.Sleep(time.Millisecond)
			if st := c.Stats(); st.StaleExtents != 0 || st.Extents != touched {
				t.Fatalf("touched %d extents: %+v", touched, st)
			}
			c.staleChecks = 0
			for i := 0; i < 64; i++ {
				write(i * 7 % 64)
			}
			p.Sleep(time.Millisecond)
			n = c.staleChecks
		})
		return n
	}
	small, large := checks(64), checks(4096)
	if small != large || small == 0 {
		t.Errorf("stale checks for 64 writes: %d after 64 extents, %d after 4096; want equal", small, large)
	}
}

// Package qos implements per-tenant bandwidth control for the fabric:
// token buckets with decentralized token borrowing (AdapTBF-style) and
// SLO tiers that map onto the receive-mode knobs the tuning layer
// already drives.
//
// The model: every enforcement point in the I/O path — a host-side
// contention domain (the queues feeding one target or one NIC) or a
// target-side server — owns one Shaper. A Shaper holds one token Bucket
// per tenant plus a lending Ledger shared by those buckets. Buckets
// refill from virtual time at the tenant's provisioned rate; refill
// capacity an idle tenant cannot absorb (its bucket is full) spills
// into the ledger, and a busy tenant whose bucket runs dry borrows from
// the ledger to keep going. Lending is local to the enforcement point —
// there is no central coordinator, no cross-shaper traffic, and no
// global state: idle capacity flows to busy tenants exactly where they
// contend.
//
// Token conservation is a hard invariant, not a hope: every token is
// minted by exactly one bucket's refill and dies by exactly one spend,
// so at any instant
//
//	minted == spent + held(in buckets) + pooled(in ledger)
//	pooled == lent - borrowed
//
// Conservation() exposes the ledger's books and Check() verifies them;
// the isolation gate asserts both after every run. Refill capacity that
// neither a full bucket nor a full ledger can hold is never minted at
// all (unused line rate is not a token), which keeps the books exact
// without a "dropped" bucket.
//
// Everything is off by default: a nil Shaper, an empty tenant name, or
// a zero rate all short-circuit to "admit" in one branch, and nothing
// here touches the wire — tenant identity rides inside the Fabrics
// Connect hostNQN field, so an unconfigured fabric is byte-identical.
package qos

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"nvmeoaf/internal/telemetry"
)

// SLO is a tenant's service-level tier. Tiers map onto the receive-path
// knobs (busy-poll budget, train depth) that IOPathTune-style tuning
// drives: latency-sensitive tenants get busy-poll receive and shallow
// trains, throughput and batch tenants get interrupt-mode receive and
// deep coalescing.
type SLO int

const (
	// SLONone leaves the receive path exactly as configured.
	SLONone SLO = iota
	// LatencySensitive busy-polls the receive path and submits shallow
	// trains: lowest tail latency, highest CPU.
	LatencySensitive
	// Throughput uses interrupt-mode receive with deep train coalescing.
	Throughput
	// Batch is Throughput with the deepest coalescing: bulk work that
	// only cares about aggregate bandwidth.
	Batch
)

// String returns the tier name used in flags and reports.
func (s SLO) String() string {
	switch s {
	case LatencySensitive:
		return "latency"
	case Throughput:
		return "throughput"
	case Batch:
		return "batch"
	}
	return "none"
}

// ParseSLO parses a tier name ("latency", "throughput", "batch",
// "none"/"" for SLONone).
func ParseSLO(s string) (SLO, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return SLONone, nil
	case "latency", "latency-sensitive", "lat":
		return LatencySensitive, nil
	case "throughput", "tput":
		return Throughput, nil
	case "batch", "bulk":
		return Batch, nil
	}
	return SLONone, fmt.Errorf("qos: unknown SLO %q", s)
}

// MarshalText and UnmarshalText let documents name a tier as String
// prints it.
func (s SLO) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *SLO) UnmarshalText(b []byte) (err error) {
	*s, err = ParseSLO(string(b))
	return err
}

// Steer fills the receive-path knobs a connection left at zero from
// this tier: the busy-poll budget and the train (batch) depth. A knob
// already set wins; SLONone fills nothing.
func (s SLO) Steer(busyPoll time.Duration, batch int) (time.Duration, int) {
	var bp time.Duration
	var b int
	switch s {
	case LatencySensitive:
		bp, b = 20*time.Microsecond, 1
	case Throughput:
		b = 16
	case Batch:
		b = 64
	}
	if busyPoll == 0 {
		busyPoll = bp
	}
	if batch == 0 {
		batch = b
	}
	return busyPoll, batch
}

// Spec declares one tenant: its name (carried through the I/O path),
// its SLO tier, and its provisioned token rate at each enforcement
// point.
type Spec struct {
	// Name identifies the tenant everywhere: telemetry views, the
	// Fabrics Connect hostNQN field, throttle accounting.
	Name string
	// SLO selects the receive-path tier (SLONone leaves knobs alone).
	SLO SLO
	// RateBps is the provisioned token refill rate in bytes/second at
	// each enforcement point. 0 = unlimited (identity and telemetry
	// only, no shaping).
	RateBps int64
	// BurstBytes bounds the bucket (tokens an idle tenant can hold for
	// itself; beyond it refill spills into the lending ledger). 0
	// defaults to max(256 KiB, 10ms of rate).
	BurstBytes int64
}

// withDefaults validates and fills derived fields.
func (sp Spec) withDefaults() (Spec, error) {
	if sp.Name == "" {
		return sp, fmt.Errorf("qos: tenant spec needs a name")
	}
	if strings.ContainsAny(sp.Name, ",\x00") {
		return sp, fmt.Errorf("qos: tenant name %q may not contain commas or NULs", sp.Name)
	}
	if sp.RateBps < 0 {
		return sp, fmt.Errorf("qos: tenant %s: negative rate", sp.Name)
	}
	const maxRate = int64(1e12) // 1 TB/s bounds the refill arithmetic
	if sp.RateBps > maxRate {
		return sp, fmt.Errorf("qos: tenant %s: rate above %d B/s", sp.Name, maxRate)
	}
	if sp.BurstBytes < 0 {
		return sp, fmt.Errorf("qos: tenant %s: negative burst", sp.Name)
	}
	if sp.BurstBytes == 0 && sp.RateBps > 0 {
		sp.BurstBytes = 256 << 10
		if tenMs := sp.RateBps / 100; tenMs > sp.BurstBytes {
			sp.BurstBytes = tenMs
		}
	}
	return sp, nil
}

// Registry is the tenant directory shared by every enforcement point of
// one deployment: the operator registers specs once, and each Shaper
// instantiates its own buckets from them. It also holds the deployment's
// enforcement points (Shaper), so their stats merge and their books are
// checked in one place.
type Registry struct {
	order []string
	specs map[string]Spec
	// points are the enforcement points Shaper built, in creation order;
	// byLabel indexes them.
	points  []*Shaper
	byLabel map[string]*Shaper
}

// NewRegistry returns an empty tenant directory.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec), byLabel: make(map[string]*Shaper)}
}

// Shaper returns the enforcement point called label, building it over
// the registry on first use; tel (may be nil) receives its per-tenant
// accounting. A registry with no tenants has no enforcement points: it
// returns nil, which admits everything.
func (r *Registry) Shaper(label string, tel *telemetry.Sink) *Shaper {
	if r.Len() == 0 {
		return nil
	}
	if sh := r.byLabel[label]; sh != nil {
		return sh
	}
	sh := NewShaper(label, r, tel)
	r.byLabel[label] = sh
	r.points = append(r.points, sh)
	return sh
}

// Stats merges the per-tenant accounting of every enforcement point
// (MergeStats: summed, sorted by tenant, so creation order does not
// show); nil for a nil registry.
func (r *Registry) Stats() []TenantStats {
	if r == nil {
		return nil
	}
	return MergeStats(r.points...)
}

// Check verifies token conservation at every enforcement point. A
// non-nil error means a ledger leaked (a bug, not a tuning problem).
func (r *Registry) Check() error {
	if r == nil {
		return nil
	}
	for _, sh := range r.points {
		if err := sh.Conservation().Check(); err != nil {
			return err
		}
	}
	return nil
}

// Add registers (or replaces) one tenant spec.
func (r *Registry) Add(sp Spec) error {
	sp, err := sp.withDefaults()
	if err != nil {
		return err
	}
	if _, ok := r.specs[sp.Name]; !ok {
		r.order = append(r.order, sp.Name)
	}
	r.specs[sp.Name] = sp
	return nil
}

// Lookup returns the spec for a tenant name.
func (r *Registry) Lookup(name string) (Spec, bool) {
	if r == nil {
		return Spec{}, false
	}
	sp, ok := r.specs[name]
	return sp, ok
}

// Names returns the registered tenants in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.order...)
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.specs)
}

// Shaper is one enforcement point: per-tenant buckets plus the lending
// ledger they share. Host-side, one Shaper covers the queues contending
// for the same target (or NIC); target-side, one Shaper covers a served
// target. The engine is cooperative (one process runs at a time), so
// plain int64 arithmetic is race-safe.
type Shaper struct {
	label   string
	reg     *Registry
	tel     *telemetry.Sink
	buckets map[string]*Bucket
	order   []string

	// Ledger books (bytes of token capacity).
	pool     int64 // tokens currently pooled for borrowing
	poolCap  int64 // ledger bound: one burst per attached tenant
	minted   int64 // tokens ever created by refill
	spent    int64 // tokens ever consumed by admissions
	lent     int64 // tokens ever moved bucket -> ledger
	borrowed int64 // tokens ever moved ledger -> bucket
}

// NewShaper builds an enforcement point over the registry. label names
// it in errors ("host/nqn...", "target/nqn..."); tel (may be nil)
// receives per-tenant borrow/lend accounting.
func NewShaper(label string, reg *Registry, tel *telemetry.Sink) *Shaper {
	return &Shaper{label: label, reg: reg, tel: tel, buckets: make(map[string]*Bucket)}
}

// Bucket returns the named tenant's bucket at this enforcement point,
// creating it on first use. Unknown tenants (and a nil shaper) get an
// unlimited bucket: identity without shaping. The bucket's refill clock
// starts at nowNs.
func (sh *Shaper) Bucket(name string, nowNs int64) *Bucket {
	if sh == nil || name == "" {
		return nil
	}
	if b, ok := sh.buckets[name]; ok {
		return b
	}
	sp, _ := sh.reg.Lookup(name)
	b := &Bucket{
		sh:      sh,
		rateBps: sp.RateBps,
		burst:   sp.BurstBytes,
		lastNs:  nowNs,
		tv:      sh.tel.Tenant(name),
	}
	// A fresh tenant starts with a full burst: admission begins
	// immediately and the initial tokens are minted on the books.
	if b.rateBps > 0 {
		b.tokens = b.burst
		sh.minted += b.burst
		sh.poolCap += b.burst
	}
	sh.buckets[name] = b
	sh.order = append(sh.order, name)
	return b
}

// Conservation is the ledger's books at one enforcement point.
type Conservation struct {
	Label    string `json:"label"`
	Minted   int64  `json:"minted"`
	Spent    int64  `json:"spent"`
	Held     int64  `json:"held"`
	Pool     int64  `json:"pool"`
	Lent     int64  `json:"lent"`
	Borrowed int64  `json:"borrowed"`
}

// Check verifies that borrowing created and destroyed zero tokens.
func (c Conservation) Check() error {
	if c.Minted != c.Spent+c.Held+c.Pool {
		return fmt.Errorf("qos %s: minted %d != spent %d + held %d + pool %d",
			c.Label, c.Minted, c.Spent, c.Held, c.Pool)
	}
	if c.Pool != c.Lent-c.Borrowed {
		return fmt.Errorf("qos %s: pool %d != lent %d - borrowed %d",
			c.Label, c.Pool, c.Lent, c.Borrowed)
	}
	if c.Pool < 0 || c.Held < 0 {
		return fmt.Errorf("qos %s: negative balance (pool %d, held %d)", c.Label, c.Pool, c.Held)
	}
	return nil
}

// Conservation returns the current books.
func (sh *Shaper) Conservation() Conservation {
	if sh == nil {
		return Conservation{}
	}
	c := Conservation{
		Label:    sh.label,
		Minted:   sh.minted,
		Spent:    sh.spent,
		Pool:     sh.pool,
		Lent:     sh.lent,
		Borrowed: sh.borrowed,
	}
	for _, name := range sh.order {
		c.Held += sh.buckets[name].tokens
	}
	return c
}

// TenantStats summarizes one bucket's lifetime activity for reports.
type TenantStats struct {
	Name      string `json:"name"`
	RateBps   int64  `json:"rate_bps,omitempty"`
	Taken     int64  `json:"taken_bytes"`
	Borrowed  int64  `json:"borrowed_bytes"`
	Lent      int64  `json:"lent_bytes"`
	Throttles int64  `json:"throttles"`
}

// Stats returns per-tenant activity in first-seen order.
func (sh *Shaper) Stats() []TenantStats {
	if sh == nil {
		return nil
	}
	out := make([]TenantStats, 0, len(sh.order))
	for _, name := range sh.order {
		b := sh.buckets[name]
		out = append(out, TenantStats{
			Name: name, RateBps: b.rateBps,
			Taken: b.Taken, Borrowed: b.Borrowed, Lent: b.Lent,
			Throttles: b.Throttles,
		})
	}
	return out
}

// MergeStats folds per-tenant stats from several shapers into one view
// sorted by name (a report helper; shapers themselves never talk).
func MergeStats(shapers ...*Shaper) []TenantStats {
	acc := map[string]*TenantStats{}
	for _, sh := range shapers {
		for _, st := range sh.Stats() {
			t, ok := acc[st.Name]
			if !ok {
				c := st
				acc[st.Name] = &c
				continue
			}
			t.Taken += st.Taken
			t.Borrowed += st.Borrowed
			t.Lent += st.Lent
			t.Throttles += st.Throttles
			if st.RateBps > t.RateBps {
				t.RateBps = st.RateBps
			}
		}
	}
	names := make([]string, 0, len(acc))
	for name := range acc {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantStats, 0, len(names))
	for _, name := range names {
		out = append(out, *acc[name])
	}
	return out
}

// Bucket is one tenant's token balance at one enforcement point. A nil
// bucket (no shaper, no tenant) admits everything.
type Bucket struct {
	sh      *Shaper
	rateBps int64
	burst   int64
	tokens  int64
	lastNs  int64
	residue int64 // sub-token refill remainder, in byte-nanoseconds/1e9 units
	tv      *telemetry.TenantView

	// Lifetime stats (see TenantStats).
	Taken     int64
	Borrowed  int64
	Lent      int64
	Throttles int64
}

// Limited reports whether this bucket actually shapes (a provisioned
// rate exists).
func (b *Bucket) Limited() bool { return b != nil && b.rateBps > 0 }

const nsPerSec = int64(1e9)

// scaleTokens computes rate*elapsed/1e9 exactly (128-bit intermediate),
// returning the whole-token quotient and sub-token remainder.
func scaleTokens(rate, elapsed int64) (q, rem int64) {
	hi, lo := bits.Mul64(uint64(rate), uint64(elapsed))
	quo, r := bits.Div64(hi, lo, uint64(nsPerSec))
	return int64(quo), int64(r)
}

// refill mints tokens for the elapsed virtual time: into the bucket up
// to its burst, then into the ledger up to its cap (that spill IS the
// lend). Capacity neither can hold is never minted — unused line rate
// is not a token, which keeps conservation exact.
func (b *Bucket) refill(nowNs int64) {
	elapsed := nowNs - b.lastNs
	if elapsed <= 0 {
		return
	}
	b.lastNs = nowNs
	// Bound the arithmetic; everything is full long before this anyway.
	const maxElapsed = int64(1e15) // ~11.6 virtual days
	if elapsed > maxElapsed {
		elapsed = maxElapsed
		b.residue = 0
	}
	gained, rem := scaleTokens(b.rateBps, elapsed)
	rem += b.residue
	if rem >= nsPerSec {
		gained++
		rem -= nsPerSec
	}
	b.residue = rem
	if gained <= 0 {
		return
	}
	if space := b.burst - b.tokens; space > 0 {
		take := gained
		if take > space {
			take = space
		}
		b.tokens += take
		b.sh.minted += take
		gained -= take
	}
	if gained > 0 {
		// The bucket is full: this tenant is idle relative to its rate.
		// Spill the surplus refill into the lending ledger.
		lend := b.sh.poolCap - b.sh.pool
		if lend > gained {
			lend = gained
		}
		if lend > 0 {
			b.sh.pool += lend
			b.sh.minted += lend
			b.sh.lent += lend
			b.Lent += lend
			b.tv.Add(telemetry.TCtrLent, lend)
		}
	}
}

// TryTake admits n bytes if the tenant's balance (own tokens, then
// borrowed ledger tokens) covers them. Unlimited buckets always admit.
func (b *Bucket) TryTake(nowNs, n int64) bool {
	if b == nil || b.rateBps <= 0 {
		return true
	}
	b.refill(nowNs)
	if b.tokens >= n {
		b.tokens -= n
		b.sh.spent += n
		b.Taken += n
		return true
	}
	deficit := n - b.tokens
	if b.sh.pool >= deficit {
		// Borrow the shortfall from the ledger: idle tenants' spilled
		// refill funds this tenant's burst, no coordinator involved.
		b.sh.pool -= deficit
		b.sh.borrowed += deficit
		b.Borrowed += deficit
		b.tv.Add(telemetry.TCtrBorrowed, deficit)
		b.tokens = 0
		b.sh.spent += n
		b.Taken += n
		return true
	}
	b.Throttles++
	return false
}

// Penalize debits up to n tokens without admitting anything: the charge
// for work a tenant caused and wasted (a shed buffer wait). Only what
// the balance covers is debited, keeping the books exact.
func (b *Bucket) Penalize(nowNs, n int64) {
	if b == nil || b.rateBps <= 0 || n <= 0 {
		return
	}
	b.refill(nowNs)
	take := n
	if take > b.tokens {
		take = b.tokens
	}
	b.tokens -= take
	b.sh.spent += take
	b.Taken += take
}

// WaitNs estimates how long until n bytes' worth of tokens refill from
// the tenant's own rate (ledger borrowing may admit sooner; a timer
// re-check handles that). Clamped to [2µs, 1ms] so wake timers neither
// spin nor oversleep.
func (b *Bucket) WaitNs(nowNs, n int64) int64 {
	const minWait, maxWait = int64(2_000), int64(1_000_000)
	if b == nil || b.rateBps <= 0 {
		return minWait
	}
	b.refill(nowNs)
	deficit := n - b.tokens
	if deficit <= 0 {
		return minWait
	}
	// deficit*1e9/rate with a 128-bit intermediate; the clamp below keeps
	// the quotient in range regardless of how extreme the deficit is.
	hi, lo := bits.Mul64(uint64(deficit), uint64(nsPerSec))
	if hi >= uint64(b.rateBps) {
		return maxWait
	}
	q, _ := bits.Div64(hi, lo, uint64(b.rateBps))
	wait := int64(q)
	if wait < minWait {
		wait = minWait
	}
	if wait > maxWait {
		wait = maxWait
	}
	return wait
}

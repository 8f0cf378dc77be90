// Package fault is the deterministic, seeded fault-injection layer the
// chaos suite drives. Risky seams of the pipeline and the serving stack
// — corpus shard generation, the extraction scans, cleaning rounds,
// every serve endpoint, snapshot reload — carry a named *site* and ask
// an injected *Injector whether this particular hit should fail, stall
// or panic.
//
// Three properties make the layer usable in production code and in
// regression tests alike:
//
//   - Zero cost when disabled. A nil *Injector is the disabled state:
//     Hit and Check on a nil receiver return immediately (a single
//     pointer comparison), so production configurations that leave the
//     Fault field nil pay nothing and allocate nothing.
//
//   - Deterministic. The decision for the k-th hit of a site is a pure
//     function of (seed, site, k): each site derives its own splitmix64
//     stream from the injector seed and an FNV hash of the site name.
//     Re-running a failed chaos schedule with the same seed reproduces
//     the exact same faults at the exact same hits, which is how a
//     chaos failure is debugged (see DESIGN.md).
//
//   - Race-safe. Sites are hit concurrently (serve endpoints, parallel
//     shard generation); per-site state is guarded by one injector
//     mutex. Under concurrency the k-th hit of a site still sees the
//     deterministic k-th decision; which goroutine observes it depends
//     on scheduling, as it must.
//
// Site names follow "<package>.<operation>" (e.g. "serve.stats",
// "corpus.shard"). Rules bind to an exact site name or, with a trailing
// ".*", to every site sharing the prefix ("serve.*").
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel every injected failure wraps, whether it
// surfaces as an error return or as a recovered panic value. Match with
// errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Rule describes what may happen at a site. The zero Rule never fires.
// Decisions are evaluated per hit in this order: latency, panic,
// deterministic first-N failure, probabilistic failure.
type Rule struct {
	// ErrProb is the probability in [0, 1] that a hit returns an
	// injected error.
	ErrProb float64
	// FailFirst fails the first N hits of the site deterministically and
	// lets every later hit through — the shape retry loops are tested
	// with ("fail twice, then recover").
	FailFirst int
	// PanicProb is the probability that a hit panics with an
	// ErrInjected-wrapped value instead of returning.
	PanicProb float64
	// Latency is slept before the decision when LatencyProb fires;
	// LatencyProb defaults to 1 when Latency is set.
	Latency     time.Duration
	LatencyProb float64
}

// siteState is the per-site stream: its derived seed and hit count.
type siteState struct {
	seed uint64
	hits int
}

// Injector decides the fate of each site hit. The zero value is not
// useful; build one with New. A nil *Injector is the disabled injector:
// every method is a no-op.
type Injector struct {
	seed  int64
	sleep func(time.Duration)

	mu    sync.Mutex
	rules map[string]Rule
	sites map[string]*siteState
}

// New builds an injector from a seed and a site → rule table. Keys are
// exact site names or prefix patterns ending in ".*". A nil or empty
// rule table is valid: the injector then only counts hits.
func New(seed int64, rules map[string]Rule) *Injector {
	r := make(map[string]Rule, len(rules))
	for k, v := range rules {
		r[k] = v
	}
	return &Injector{
		seed:  seed,
		sleep: time.Sleep,
		rules: r,
		sites: make(map[string]*siteState),
	}
}

// SetSleep replaces the latency sleeper (tests record delays instead of
// actually waiting). It must be called before the injector is shared.
// fn runs on whichever goroutine hit the site, parallel workers
// included, so it must be safe for concurrent use.
func (in *Injector) SetSleep(fn func(time.Duration)) {
	if in == nil {
		return
	}
	in.sleep = fn
}

// Hit records one hit of the site and returns the injected error for
// this hit, if any. It may also sleep (latency injection) or panic
// (forced panics); both are governed by the site's rule. On a nil
// receiver it returns nil immediately — the disabled fast path.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	st := in.sites[site]
	if st == nil {
		st = &siteState{seed: siteSeed(in.seed, site)}
		in.sites[site] = st
	}
	st.hits++
	hit := st.hits
	rule, ok := in.ruleFor(site)
	in.mu.Unlock()
	if !ok {
		return nil
	}

	// Three independent draws per hit, one per decision, so enabling
	// latency never re-routes the error/panic stream of the same seed.
	if rule.Latency > 0 {
		p := rule.LatencyProb
		if p <= 0 {
			p = 1
		}
		if unit(draw(st.seed, hit, 0)) < p {
			in.sleep(rule.Latency)
		}
	}
	if rule.PanicProb > 0 && unit(draw(st.seed, hit, 1)) < rule.PanicProb {
		panic(fmt.Errorf("%w: panic at %s hit %d", ErrInjected, site, hit))
	}
	if hit <= rule.FailFirst {
		return fmt.Errorf("%w: %s hit %d (fail-first %d)", ErrInjected, site, hit, rule.FailFirst)
	}
	if rule.ErrProb > 0 && unit(draw(st.seed, hit, 2)) < rule.ErrProb {
		return fmt.Errorf("%w: %s hit %d", ErrInjected, site, hit)
	}
	return nil
}

// Check is Hit for seams whose signatures cannot carry an error (corpus
// generation, the extraction scans, cleaning rounds): an injected error
// escalates to a panic, which the pipeline's caller-side recovery
// (driftclean.ErrStagePanic) converts back into a wrapped error.
func (in *Injector) Check(site string) {
	if in == nil {
		return
	}
	if err := in.Hit(site); err != nil {
		panic(err)
	}
}

// Count returns how many times the site has been hit.
func (in *Injector) Count(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.sites[site]; st != nil {
		return st.hits
	}
	return 0
}

// Sites returns every site hit so far, sorted — the chaos suite asserts
// coverage with it.
func (in *Injector) Sites() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.sites))
	for s := range in.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ruleFor resolves the rule bound to a site: exact match first, then
// the longest matching ".*" prefix pattern. Callers hold in.mu.
func (in *Injector) ruleFor(site string) (Rule, bool) {
	if r, ok := in.rules[site]; ok {
		return r, true
	}
	bestLen := -1
	var best Rule
	for pat, r := range in.rules {
		if !strings.HasSuffix(pat, ".*") {
			continue
		}
		prefix := pat[:len(pat)-1] // keep the dot: "serve.*" matches "serve.stats"
		if strings.HasPrefix(site, prefix) && len(prefix) > bestLen {
			bestLen = len(prefix)
			best = r
		}
	}
	return best, bestLen >= 0
}

// siteSeed derives a site's stream seed from the injector seed and an
// FNV-1a hash of the site name.
func siteSeed(seed int64, site string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(site))
	return splitmix64(uint64(seed) ^ h.Sum64())
}

// draw produces the lane-th decision value of a site's hit-th hit. Each
// (hit, lane) pair gets an independent splitmix64 finalization of the
// site stream.
func draw(siteSeed uint64, hit, lane int) uint64 {
	return splitmix64(siteSeed + 0x9e3779b97f4a7c15*uint64(hit) + 0xd1342543de82ef95*uint64(lane+1))
}

// unit maps a uint64 onto [0, 1).
func unit(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// splitmix64 is the standard SplitMix64 finalizer.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"driftclean/internal/fault"
	"driftclean/internal/snapshot"
)

// fakeClock is a manual clock for breaker-cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// reloadFixture wires a Reloader whose loader counts calls and fails on
// demand, recording every backoff sleep.
type reloadFixture struct {
	svc    *Service
	rl     *Reloader
	clock  *fakeClock
	slept  []time.Duration
	loads  int
	failed bool // loader returns an error while set
}

func newReloadFixture(t *testing.T, cfg ReloadConfig) *reloadFixture {
	t.Helper()
	f := &reloadFixture{
		svc:   New(snapshot.Freeze(chainKB(4)), Options{}),
		clock: &fakeClock{t: time.Unix(1000, 0)},
	}
	cfg.Sleep = func(d time.Duration) { f.slept = append(f.slept, d) }
	cfg.Now = f.clock.now
	f.rl = NewReloader(f.svc, func() (*snapshot.Snapshot, error) {
		f.loads++
		if f.failed {
			return nil, errors.New("disk gone")
		}
		return snapshot.Freeze(chainKB(4)), nil
	}, cfg)
	return f
}

// TestReloadRetriesTransientFailure: a reload whose first attempts hit
// injected faults must retry with backoff and eventually publish — and
// the service must come out fresh, not stale.
func TestReloadRetriesTransientFailure(t *testing.T) {
	inj := fault.New(1, map[string]fault.Rule{"serve.reload": {FailFirst: 2}})
	f := newReloadFixture(t, ReloadConfig{MaxAttempts: 4, Fault: inj})
	gen := f.svc.Generation()
	if err := f.rl.Reload(); err != nil {
		t.Fatalf("Reload with 2 transient failures and 4 attempts: %v", err)
	}
	if f.loads != 1 {
		t.Fatalf("loader ran %d times, want 1 (two attempts consumed by faults)", f.loads)
	}
	if len(f.slept) != 2 {
		t.Fatalf("slept %d times, want 2 (one backoff per failed attempt)", len(f.slept))
	}
	if f.svc.Stale() {
		t.Fatal("service marked stale after a successful reload")
	}
	if f.svc.Generation() == gen {
		t.Fatal("reload did not publish a new snapshot generation")
	}
}

// TestReloadBackoffGrowsAndIsDeterministic: the backoff schedule doubles
// (within the jitter band) up to the cap, and two reloaders sleep the
// exact same schedule.
func TestReloadBackoffGrowsAndIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		inj := fault.New(1, map[string]fault.Rule{"serve.reload": {FailFirst: 1000}})
		f := newReloadFixture(t, ReloadConfig{
			MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
			Fault: inj,
		})
		if err := f.rl.Reload(); err == nil {
			t.Fatal("Reload succeeded with all attempts faulted")
		}
		return f.slept
	}
	a := run()
	if len(a) != 4 {
		t.Fatalf("slept %d times, want 4", len(a))
	}
	// Attempt i retries after base·2^(i-1) jittered into [d/2, d), capped.
	caps := []time.Duration{10, 20, 40, 40}
	for i, d := range a {
		max := caps[i] * time.Millisecond
		if d < max/2 || d >= max {
			t.Errorf("sleep %d = %v, want in [%v, %v)", i, d, max/2, max)
		}
	}
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two reloaders slept %v then %v", a, b)
		}
	}
}

// TestReloadFailureServesStaleLastGood: when every attempt fails, the
// last-good snapshot keeps serving and is marked stale; the next
// successful reload clears the flag.
func TestReloadFailureServesStaleLastGood(t *testing.T) {
	f := newReloadFixture(t, ReloadConfig{MaxAttempts: 2, BreakerThreshold: 100})
	f.failed = true
	gen := f.svc.Generation()
	if err := f.rl.Reload(); err == nil {
		t.Fatal("Reload succeeded with a failing loader")
	}
	if !f.svc.Stale() {
		t.Fatal("service not marked stale after reload failure")
	}
	if f.svc.Generation() != gen {
		t.Fatal("failed reload changed the published snapshot")
	}
	if _, err := f.svc.Stats(context.Background()); err != nil {
		t.Fatalf("stale service stopped answering queries: %v", err)
	}
	f.failed = false
	if err := f.rl.Reload(); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	if f.svc.Stale() {
		t.Fatal("stale flag survived a successful reload")
	}
}

// TestReloadBreakerOpensAndRecovers: BreakerThreshold consecutive failed
// reloads open the breaker — further calls are shed without touching the
// loader — and after the cooldown a half-open trial can close it again.
func TestReloadBreakerOpensAndRecovers(t *testing.T) {
	f := newReloadFixture(t, ReloadConfig{
		MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: 5 * time.Second,
	})
	f.failed = true
	for i := 0; i < 3; i++ {
		if err := f.rl.Reload(); errors.Is(err, ErrBreakerOpen) || err == nil {
			t.Fatalf("reload %d: err = %v, want plain failure", i, err)
		}
	}
	if !f.rl.BreakerOpen() {
		t.Fatal("breaker still closed after threshold failures")
	}
	loadsBefore := f.loads
	if err := f.rl.Reload(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if f.loads != loadsBefore {
		t.Fatal("open breaker still invoked the loader")
	}

	// Half-open trial that fails re-opens the breaker for a fresh cooldown.
	f.clock.advance(6 * time.Second)
	if err := f.rl.Reload(); errors.Is(err, ErrBreakerOpen) || err == nil {
		t.Fatalf("half-open trial: err = %v, want plain failure", err)
	}
	if !f.rl.BreakerOpen() {
		t.Fatal("failed half-open trial did not re-open the breaker")
	}

	// After another cooldown the loader recovers and the breaker closes.
	f.clock.advance(6 * time.Second)
	f.failed = false
	if err := f.rl.Reload(); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	if f.rl.BreakerOpen() || f.svc.Stale() {
		t.Fatal("breaker or stale flag survived a successful reload")
	}
}

// TestQueryFaultInjection: an injector on the serve.* sites makes
// queries fail deterministically with ErrInjected — and a nil injector
// (the production default) never does.
func TestQueryFaultInjection(t *testing.T) {
	inj := fault.New(3, map[string]fault.Rule{"serve.*": {FailFirst: 2}})
	svc := New(snapshot.Freeze(chainKB(4)), Options{Fault: inj})
	ctx := context.Background()
	if _, err := svc.Stats(ctx); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first faulted query: %v, want ErrInjected", err)
	}
	if _, err := svc.Stats(ctx); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("second faulted query: %v, want ErrInjected", err)
	}
	if _, err := svc.Stats(ctx); err != nil {
		t.Fatalf("query after FailFirst window: %v", err)
	}
}

package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"driftclean/internal/fault"
	"driftclean/internal/snapshot"
)

// ErrBreakerOpen is returned by Reloader.Reload while the circuit
// breaker is open: enough consecutive reload attempts have failed that
// further tries are suppressed until the cooldown elapses. The service
// keeps serving its last-good snapshot (marked stale) the whole time.
var ErrBreakerOpen = errors.New("serve: reload circuit breaker open")

// ReloadConfig tunes the retry and circuit-breaker behavior of a
// Reloader. The zero value selects sensible production defaults.
type ReloadConfig struct {
	// MaxAttempts bounds the load attempts of one Reload call
	// (default 4).
	MaxAttempts int
	// BaseDelay is the first retry's backoff (default 50ms); each
	// further retry doubles it, capped at MaxDelay (default 2s). The
	// actual sleep is jittered deterministically into [delay/2, delay),
	// so every Reloader sleeps the same schedule.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BreakerThreshold is the number of consecutive failed Reload calls
	// (each already MaxAttempts deep) that opens the breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open trial reload is allowed (default 5s).
	BreakerCooldown time.Duration
	// Sleep and Now are test seams; nil means time.Sleep and time.Now.
	Sleep func(time.Duration)
	Now   func() time.Time
	// Fault, when non-nil, is consulted at the "serve.reload" site once
	// per load attempt (chaos testing); nil is the production no-op.
	Fault *fault.Injector
}

// withDefaults fills the zero-valued knobs.
func (c ReloadConfig) withDefaults() ReloadConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Reloader wraps a snapshot loader with capped-exponential-backoff
// retries and a circuit breaker, publishing successful loads to a
// Service via Swap. While loads fail, the service's last-good snapshot
// keeps serving and is marked stale; the first success clears the flag.
// Reload is serialized — concurrent calls queue behind the mutex — which
// matches its use from an HTTP handler and a SIGHUP goroutine.
type Reloader struct {
	svc  *Service
	load func() (*snapshot.Snapshot, error)
	cfg  ReloadConfig

	mu          sync.Mutex
	consecFails int       // consecutive failed Reload calls
	openUntil   time.Time // breaker open until this instant (zero = closed)
	draws       uint64    // jitter stream position
}

// NewReloader builds a Reloader that publishes to svc whatever load
// returns.
func NewReloader(svc *Service, load func() (*snapshot.Snapshot, error), cfg ReloadConfig) *Reloader {
	return &Reloader{svc: svc, load: load, cfg: cfg.withDefaults()}
}

// Reload attempts to load and publish a fresh snapshot, retrying with
// capped exponential backoff and deterministic jitter. It returns nil on
// success, ErrBreakerOpen while the breaker is open, and otherwise the
// last load error (wrapped). Any failure marks the service stale; the
// BreakerThreshold-th consecutive failure opens the breaker for
// BreakerCooldown, after which the next call runs a half-open trial.
func (r *Reloader) Reload() error {
	r.mu.Lock()
	defer r.mu.Unlock()

	now := r.cfg.Now()
	if !r.openUntil.IsZero() && now.Before(r.openUntil) {
		return fmt.Errorf("%w until %s", ErrBreakerOpen, r.openUntil.Format(time.RFC3339))
	}

	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.cfg.Sleep(r.backoff(attempt))
		}
		if err := r.cfg.Fault.Hit("serve.reload"); err != nil {
			lastErr = err
			continue
		}
		snap, err := r.load()
		if err != nil {
			lastErr = err
			continue
		}
		r.svc.Swap(snap) // Swap clears the stale flag
		r.consecFails = 0
		r.openUntil = time.Time{}
		return nil
	}

	r.svc.MarkStale(true)
	r.consecFails++
	if r.consecFails >= r.cfg.BreakerThreshold {
		// Open (or re-open after a failed half-open trial). The cooldown
		// restarts from now.
		r.openUntil = r.cfg.Now().Add(r.cfg.BreakerCooldown)
	}
	return fmt.Errorf("serve: reload failed after %d attempts: %w", r.cfg.MaxAttempts, lastErr)
}

// BreakerOpen reports whether the breaker is currently open (a Reload
// call right now would be rejected without trying).
func (r *Reloader) BreakerOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.openUntil.IsZero() && r.cfg.Now().Before(r.openUntil)
}

// backoff computes the jittered delay before the given retry attempt
// (attempt >= 1): base·2^(attempt-1) capped at MaxDelay, then scaled
// into [1/2, 1) of itself by a fixed-seed draw, so the schedule is
// reproducible.
func (r *Reloader) backoff(attempt int) time.Duration {
	d := r.cfg.BaseDelay << (attempt - 1)
	if d > r.cfg.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = r.cfg.MaxDelay
	}
	r.draws++
	u := jitterUnit(r.draws)
	return d/2 + time.Duration(u*float64(d/2))
}

// jitterUnit maps a draw index onto [0, 1) with a splitmix64 mix —
// deterministic, dependency-free, and independent per draw.
func jitterUnit(k uint64) float64 {
	z := k * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

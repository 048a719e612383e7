package metrics

import (
	"sync"
	"time"
)

// TokenBucket is a thread-safe token-bucket rate limiter: tokens refill at
// a fixed rate up to a burst ceiling, and each admitted event consumes one.
// It is the shedding primitive wire mode uses to protect authority switches
// and the control plane from miss storms.
//
// A nil *TokenBucket admits everything, so callers can treat "no limit
// configured" and "bucket" uniformly.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket refilling at rate tokens/second with the
// given burst capacity (minimum 1). A rate ≤ 0 returns nil: unlimited.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// Allow consumes one token if available, reporting whether the event is
// admitted. Nil-safe: a nil bucket always admits, without reading the
// clock.
func (b *TokenBucket) Allow() bool { return b == nil || b.AllowAt(time.Now()) }

// AllowAt is Allow with an explicit clock, for tests.
func (b *TokenBucket) AllowAt(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Package sim provides the deterministic simulation kernel shared by all
// components of the simulator: the cycle clock, a seeded random number
// generator, and lightweight tracing hooks.
//
// The simulator is cycle driven: the owning System advances the clock
// one cycle at a time and visits its components in a fixed order,
// ticking each one that has work due, which makes a whole run a pure
// function of (configuration, workload, seed).
package sim

import "fmt"

// Cycle is a point in simulated time. Cycles start at 0 and advance by one
// on every call to Clock.Advance.
type Cycle uint64

// Clock holds the current simulated time.
type Clock struct {
	now Cycle
}

// Now returns the current cycle.
func (c *Clock) Now() Cycle { return c.now }

// Advance moves the clock forward by one cycle and returns the new time.
func (c *Clock) Advance() Cycle {
	c.now++
	return c.now
}

// Rand is a small, fast, deterministic PRNG (xorshift64*). It is used
// instead of math/rand so the simulator's behaviour is stable across Go
// releases, and so that sub-streams can be forked cheaply per component.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is replaced by
// a fixed non-zero constant since xorshift has a zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Fork derives an independent generator from r, keyed by id. Components
// fork their own streams so adding a random draw in one component does not
// perturb another.
func (r *Rand) Fork(id uint64) *Rand {
	return NewRand(r.Uint64() ^ (id+1)*0xbf58476d1ce4e5b9)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("sim: Range with lo=%d hi=%d", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

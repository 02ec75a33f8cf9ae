package sim

import (
	"math"
	"math/rand"
)

// Source produces the random variates used by the workload and server
// models. It wraps math/rand with the distributions common in web-workload
// modeling (exponential think times, log-normal service times, bounded
// Pareto object sizes) and is deterministic for a given seed.
//
// A Source holds its generator by value, so one can be embedded in the
// struct that draws from it. A seeded Source must not be copied: the copy
// would draw from the original's register (go vet reports the copy).
type Source struct {
	noCopy noCopy
	rng    rand.Rand
	src    rngSource
}

// noCopy makes go vet's copylocks check report a copied Source.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewSource returns a Source seeded with seed. Its draws are those of
// rand.New(rand.NewSource(seed)), bit for bit, but seeding does not fill
// math/rand's 607-word register up front (see rngSource).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.seed(seed)
	return s
}

// seed reseeds s in place: it then draws what NewSource(seed) draws.
func (s *Source) seed(seed int64) {
	s.src.Seed(seed)
	s.rng = *rand.New(&s.src)
}

// Fork derives an independent deterministic sub-stream, so components can be
// given their own randomness without cross-coupling event orders.
func (s *Source) Fork() *Source {
	return NewSource(s.rng.Int63())
}

// ForkInto is Fork into dst: it makes the same draw from s and seeds dst
// with it.
func (s *Source) ForkInto(dst *Source) {
	dst.seed(s.rng.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// LogNormal returns a log-normal variate parameterized by the desired mean
// and coefficient of variation (cv = stddev/mean) of the resulting
// distribution. Service times of web and database requests are classically
// modeled as log-normal.
func (s *Source) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*s.rng.NormFloat64())
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

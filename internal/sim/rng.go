package sim

import "math/rand"

// rngSource is math/rand's additive lagged-Fibonacci source (Mitchell and
// Reeds; 607 words, tap 273), with the same Seed, Int63 and Uint64, bit
// for bit. math/rand fills all 607 register words on Seed, three Lehmer
// steps each; a simulated browser draws about 30 values in its life, so
// here Seed only stores the normalised seed and each initial word is
// computed on the one draw that first reads it.
type rngSource struct {
	tap, feed int
	// drawn counts draws while they can still read an initial word: draw
	// n (1-based) reads the initial feed word for n ≤ 334 and the
	// initial tap word for n ≤ 273, and reads every other word only
	// after an earlier draw of this seeding has written it.
	drawn int
	x0    uint64 // the seed, normalised into [1, 2³¹−1)
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of math/rand's seeding generator,
	// x_{k+1} = lehmerA·x_k mod (2³¹−1).
	lehmerA = 48271
)

var (
	// rngCooked is math/rand's seeding table: initial word i of seed s
	// is rngCooked[i] ^ seedWord(s, i).
	rngCooked [rngLen]int64
	// lehmerPow[k] = lehmerA^k mod (2³¹−1), for every Lehmer step an
	// initial word reads.
	lehmerPow [3*rngLen + 21]uint64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerA % int32max
	}
	// Recover rngCooked from math/rand's own output. Draw n of a fresh
	// source adds the tap word 607−n to the feed word (334−n) mod 607 and
	// stores the sum, its output, there; over the first 607 draws each
	// word is a feed exactly once. Walking the draws backwards, each tap
	// word is either an earlier draw's output or an initial word that a
	// later draw has already recovered.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var initial [rngLen]int64
	for n := rngLen; n >= 1; n-- {
		tap, feed := rngLen-n, (2*rngLen-rngTap-n)%rngLen
		tapVal := initial[tap]
		if m := (2*rngLen-rngTap-tap-1)%rngLen + 1; m < n { // the draw that feeds tap
			tapVal = out[m]
		}
		initial[feed] = out[n] - tapVal
	}
	for i := range rngCooked {
		rngCooked[i] = initial[i] ^ seedWord(1, i)
	}
}

// seedWord is the Lehmer part of initial word i for normalised seed x0:
// x_{3i+21}<<40 ^ x_{3i+22}<<20 ^ x_{3i+23}, where x_k = lehmerA^k·x0.
func seedWord(x0 uint64, i int) int64 {
	k := 3*i + 21
	a := int64(lehmerPow[k] * x0 % int32max)
	b := int64(lehmerPow[k+1] * x0 % int32max)
	c := int64(lehmerPow[k+2] * x0 % int32max)
	return a<<40 ^ b<<20 ^ c
}

// Seed uses the provided seed value to initialize the generator to a
// deterministic state.
func (r *rngSource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	r.drawn = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *rngSource) Int63() int64 {
	return int64(r.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (r *rngSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.drawn < rngLen-rngTap {
		r.drawn++
		r.vec[r.feed] = rngCooked[r.feed] ^ seedWord(r.x0, r.feed)
		if r.drawn <= rngTap {
			r.vec[r.tap] = rngCooked[r.tap] ^ seedWord(r.x0, r.tap)
		}
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

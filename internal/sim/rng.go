package sim

// RNG is a small deterministic pseudo-random generator (splitmix64). The
// simulator cannot use math/rand's global source: experiments must be
// reproducible from a single seed, and fault-injection campaigns compare
// runs bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Duration returns a uniform virtual duration in [0, d). It panics if d <= 0.
func (r *RNG) Duration(d Duration) Duration {
	return Duration(r.Int63n(int64(d)))
}

// perm returns a random permutation of [0, n).
func (r *RNG) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// State snapshots the generator's full internal state. Together with
// Restore it gives the speculation machinery (shard.go) an exact
// checkpoint: splitmix64 keeps all of its entropy in one word, so a
// snapshot is a single load and a restore replays the identical stream.
func (r *RNG) State() uint64 { return r.state }

// Restore rewinds the generator to a state previously captured with State.
// The next Uint64 after Restore(s) equals the next Uint64 after State
// returned s.
func (r *RNG) Restore(s uint64) { r.state = s }

// Fork derives an independent generator from the current stream. Subsystems
// take forked generators so that adding randomness in one component does not
// perturb the sequence seen by another.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// DeriveRNG returns a generator that is a pure function of (seed, index):
// the seed-splitting contract for parallel experiment campaigns. Trial i of
// a campaign seeded with s draws from DeriveRNG(s, i) no matter which worker
// executes it or in what order, so a fanned-out run is bit-for-bit identical
// to the serial one at any worker count. The index is folded in through the
// same splitmix64 finalizer the stream itself uses, so adjacent indices land
// in uncorrelated streams.
func DeriveRNG(seed, index uint64) *RNG {
	z := seed + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

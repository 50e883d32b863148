// Sharded execution: RunShards runs several independent simulations
// ("shards") on a small worker pool. Each shard is a full kernel stack
// on its own engine with its own forked seed and shares nothing with
// its neighbors, so a shard's Result is byte-identical to running it
// alone with Run — worker count and GOMAXPROCS change wall-clock only,
// never results. The worker-count and GOMAXPROCS invariance tests pin
// exactly that.
package harness

import (
	"fmt"
	"sync"

	"kloc/internal/sim"
)

// ShardsConfig describes a sharded fleet run.
type ShardsConfig struct {
	// Base is the per-shard run configuration. Policies and workloads
	// must be named (PolicyName/Workload), not pre-built instances: a
	// shared Policy object would couple the shards.
	Base RunConfig
	// Shards is the number of independent simulations. Defaults to 1.
	Shards int
	// Workers is the number of goroutines driving the shards.
	// Defaults to 1; results never depend on it.
	Workers int
}

// ShardsResult is the fleet outcome.
type ShardsResult struct {
	// Results holds one Result per shard, in shard order. Results[i]
	// is byte-identical to Run with Base.Seed replaced by
	// ShardSeed(seed, i).
	Results []*Result
	// Fired holds each shard's engine event count, in shard order.
	Fired []uint64
}

// ShardSeed derives shard s's root seed from the fleet seed: shard 0
// keeps the fleet seed (a 1-shard fleet is exactly Run), later shards
// get splitmix64-scrambled streams so neighboring shards share no
// correlated randomness.
func ShardSeed(seed uint64, shard int) uint64 {
	if shard == 0 {
		return seed
	}
	z := seed + uint64(shard)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "default" to withDefaults; keep derived seeds
		// out of that collision.
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// RunShards executes Shards independent simulations and collects their
// Results in shard order. Worker w runs shards s ≡ w (mod Workers) to
// completion, one after another; each shard writes only its own slot,
// so the pool needs no synchronization beyond the final join.
func RunShards(cfg ShardsConfig) (*ShardsResult, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Base.Policy != nil {
		return nil, fmt.Errorf("harness: RunShards requires PolicyName, not a shared Policy instance")
	}
	base := cfg.Base.withDefaults()

	out := &ShardsResult{
		Results: make([]*Result, cfg.Shards),
		Fired:   make([]uint64, cfg.Shards),
	}
	errs := make([]error, cfg.Shards)
	runShard := func(s int) {
		scfg := base
		scfg.Seed = ShardSeed(base.Seed, s)
		p, err := prepare(scfg, sim.NewEngine())
		if err != nil {
			errs[s] = err
			return
		}
		p.eng.Run()
		out.Fired[s] = p.eng.Fired()
		out.Results[s], errs[s] = p.finish()
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers && w < cfg.Shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < cfg.Shards; s += cfg.Workers {
				runShard(s)
			}
		}(w)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: shard %d: %w", s, err)
		}
	}
	return out, nil
}

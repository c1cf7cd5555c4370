package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"durassd/internal/serve"
)

// The serve-chaos workload is serve.ChaosScenario at the servebench
// default (2 groups x R=3, W=2, 7 domains, 1 worker) with the tenant op
// counts scaled up and the DefaultChaos fault schedule repeated through
// the run, so brownouts, power-fail/reboot/catch-up and overload keep
// firing. The tenants are closed loops behind token buckets.
const (
	chaosScale  = 20                     // tenant op-count multiplier
	chaosPeriod = 150 * time.Millisecond // one DefaultChaos round
	chaosRounds = 17                     // rounds that start while traffic flows
)

var serveChaosWorkload = workload{
	name:  "serve-chaos",
	setup: setupServeChaos,
	run:   runServeChaos,
}

func chaosConfig(seed int64) serve.ScenarioConfig {
	cfg := serve.ChaosScenario(1, seed)
	for i := range cfg.Tenants {
		cfg.Tenants[i].Ops *= chaosScale
	}
	base := serve.DefaultChaos()
	spec := &serve.ChaosSpec{}
	for k := 0; k < chaosRounds; k++ {
		off := time.Duration(k) * chaosPeriod
		for _, b := range base.Brownouts {
			b.At += off
			spec.Brownouts = append(spec.Brownouts, b)
		}
		for _, c := range base.Crashes {
			c.At += off
			spec.Crashes = append(spec.Crashes, c)
		}
		for _, o := range base.Overloads {
			o.At += off
			spec.Overloads = append(spec.Overloads, o)
		}
	}
	cfg.Chaos = spec
	return cfg
}

// setupServeChaos builds the serving box without traffic or faults: the
// cluster, the 6 replica devices and stores with their preloaded key
// spaces, the gateway and its filters. RunScenario hides these objects,
// so a run with zero-op tenants is the public way to time them.
func setupServeChaos(seed int64) error {
	cfg := chaosConfig(seed)
	cfg.Chaos = nil
	for i := range cfg.Tenants {
		cfg.Tenants[i].Ops = 0
	}
	_, err := serve.RunScenario(cfg)
	return err
}

func runServeChaos(seed int64, traced bool) (time.Duration, int64, *outcome, error) {
	cfg := chaosConfig(seed)
	var issued int64
	for _, ts := range cfg.Tenants {
		issued += int64(ts.Ops / ts.Threads * ts.Threads)
	}
	t0 := time.Now()
	res, err := serve.RunScenario(cfg)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("serve-chaos run: %w", err)
	}

	// The first len(cfg.Tenants) rows are the real tenants; the rest are
	// the chaos noise accounts.
	var answered, shed, retried, throttled int64
	var p50, p99 time.Duration
	for _, t := range res.Tenants[:len(cfg.Tenants)] {
		answered += t.Ops
		shed += t.Shed
		retried += t.Retried
		throttled += t.Throttled
		p50 = max(p50, t.ReadP50, t.WriteP50)
		p99 = max(p99, t.ReadP99, t.WriteP99)
	}
	o := &outcome{
		Attempted: issued,
		Virtual: map[string]float64{
			"sim_ops_per_s": float64(answered) / res.Elapsed.Seconds(),
			"sim_p50_ms":    ms(p50),
			"sim_p99_ms":    ms(p99),
			"sim_samples":   float64(answered),
			"failed_pct":    100 * float64(issued-answered) / float64(issued),
		},
	}
	render := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Render())))
	o.Fingerprint = fmt.Sprintf("digest=%s render=%s", res.Digest[:16], render[:16])
	rb := res.Robust
	if answered == 0 || answered > issued {
		o.failf("serve-chaos: %d answered of %d issued", answered, issued)
	}
	if shed == 0 || rb.CatchupKeys == 0 || rb.Hedges == 0 {
		o.failf("serve-chaos: faults did not fire (shed %d, catch-up keys %d, hedges %d)", shed, rb.CatchupKeys, rb.Hedges)
	}
	if seed == defaultSeed {
		pinned(o, "serve-chaos digest", res.Digest, pinServeDigest)
		pinned(o, "serve-chaos report", render, pinServeRender)
		pinned(o, "serve-chaos shed", fmt.Sprint(shed), pinServeShed)
	}
	if o.Problems != nil {
		o.Failed = issued
	}
	if traced {
		o.Layers = map[string]float64{
			"sim.events":            float64(res.Events),
			"sim.ns_per_event":      float64(d.Nanoseconds()) / float64(res.Events),
			"serve.answered":        float64(answered),
			"serve.shed":            float64(shed),
			"serve.retried":         float64(retried),
			"serve.throttled":       float64(throttled),
			"serve.cache_hit_ratio": res.CacheRatio,
			"serve.hedges":          float64(rb.Hedges),
			"serve.breaker_opens":   float64(rb.BreakerOpens),
			"serve.catchup_keys":    float64(rb.CatchupKeys),
			"serve.unavailable":     float64(rb.Unavailable),
		}
	}
	return d, issued, o, nil
}

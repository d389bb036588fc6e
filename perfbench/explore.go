package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/explore"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// explore is the design-space fast path: the macro-model is fitted in
// set-up, then a closed-loop caller prices candidates with
// MacroModel.EstimateWorkload. procgen, asm, plan, iss.New and the ISS
// do the work; there is no rtlpower and no memo.

func runExplore(rc *runConfig) (*result, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	res := &result{}
	var model *core.MacroModel
	var registry []core.Workload
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		registry = workloads.All()
		cr, err := core.Characterize(context.Background(), procgen.Default(), rtlpower.DefaultTechnology(),
			workloads.CharacterizationSuite(), core.Options{Parallelism: 1})
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if !g.coefOK(cr.Model) {
			return nil, fmt.Errorf("fitted coefficients differ from golden.json")
		}
		model = cr.Model
	}

	check := func(c *candidate, e core.Estimate, err error) bool {
		if err != nil {
			return false
		}
		if c.fresh() {
			return e.EnergyPJ > 0 && !math.IsInf(e.EnergyPJ, 0)
		}
		return bits(e.EnergyPJ) == g.EstimatePJ[estimateKey(c.Config, c.Name)]
	}

	untraced := 0
	for ; rc.more(&res.main, 2); untraced++ {
		round := exploreRound(rc.seed, untraced, registry)
		lat := make([]float64, len(round))
		runRound(len(round), func(i int) bool {
			c := &round[i]
			t0 := time.Now()
			e, err := model.EstimateWorkload(c.cfg, c.w)
			lat[i] = 1e3 * time.Since(t0).Seconds()
			return check(c, e, err)
		}, &res.main)
		res.main.lat = append(res.main.lat, lat...)
	}
	traced := rc.tracedRounds(&res.main)
	if traced == 0 {
		return res, nil
	}

	rec := newRecorder(rc.epoch)
	op := 0
	for r := untraced; r < untraced+traced; r++ {
		round := exploreRound(rc.seed, r, registry)
		runRound(len(round), func(i int) bool {
			c := &round[i]
			op++
			s := rec.begin("core.estimate", kindOp, -1, op)
			e, err := estimateTraced(rec, s, model, c.cfg, c.w)
			rec.end(s)
			return check(c, e, err)
		}, &res.traced)
	}

	// One explore.Evaluate over the registry on both configurations.
	var cands []explore.Candidate
	for _, cfg := range configs() {
		for _, w := range registry {
			cands = append(cands, explore.Candidate{Config: cfg, Workload: w})
		}
	}
	s := rec.begin("explore.evaluate", kindProbe, -1, op+1)
	points, err := explore.Evaluate(model, cands)
	rec.end(s)
	res.traced.attempted++
	ok := err == nil
	for _, p := range points {
		ok = ok && bits(p.EnergyPJ) == g.EstimatePJ[estimateKey(p.Config.Name, p.Workload.Name)]
	}
	if !ok {
		res.traced.failed++
	}
	res.spans = rec.spans
	return res, nil
}

package core

import (
	"fmt"
	"time"

	"haspmv/internal/telemetry"
)

var (
	cRepartitions   = telemetry.NewCounter("core_repartitions")
	repartitionHist = telemetry.NewHistogram("core_repartition")
)

// Plan is a partition target for Repartition: the level-1 P-group cost
// share plus optional per-core weights refining the level-2 split.
type Plan struct {
	// PProportion is the P-group's share of the total cost, in (0, 1).
	// It is ignored when the instance has a single effective group
	// (OneLevel, POnly or EOnly configurations).
	PProportion float64
	// Weights skew the within-group level-2 split: core slot i (region
	// order) receives a cost share proportional to Weights[i] within its
	// group's budget. nil means equal shares — Algorithm 4's default.
	Weights []float64
}

// grouped reports whether the instance splits cost between two core
// groups at level 1 (false for OneLevel and single-group configs).
func (p *Prepared) grouped() bool {
	n := len(p.cores)
	return !p.opts.OneLevel && p.pCount > 0 && p.pCount < n
}

// Plan returns the currently installed partition target: the effective
// level-1 proportion and, after a weighted Repartition, the level-2
// weights (nil while the level-2 split is the equal-share default).
func (p *Prepared) Plan() Plan {
	if pl := p.plan.Load(); pl != nil {
		return *pl
	}
	return Plan{PProportion: p.opts.PProportion}
}

// Repartition moves the region boundaries to match plan without
// re-running any analysis: the HACSR reorder, the cost prefix sums and
// the per-row structure are reused, so the whole call is O(cores·log nnz)
// binary searches plus at most one in-row walk per boundary, and the only
// allocation is the fresh regions slice (installed atomically — an
// in-flight Compute keeps its own consistent snapshot).
//
// It is the cheap probe primitive behind TuneProportion and the rebalance
// step of the Adapter; Prepare remains the only place format conversion
// happens.
func (p *Prepared) Repartition(plan Plan) error {
	tel := telemetry.Active()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	n := len(p.cores)
	if n == 0 {
		return nil
	}
	if plan.Weights != nil && len(plan.Weights) != n {
		return fmt.Errorf("core: repartition got %d weights for %d cores", len(plan.Weights), n)
	}
	p.repMu.Lock()
	defer p.repMu.Unlock()
	if p.repBounds == nil {
		p.repBounds = make([]float64, n+1)
		p.repCuts = make([]int, n+1)
	}
	bounds, cuts := p.repBounds, p.repCuts
	if err := p.planBounds(bounds, plan); err != nil {
		return err
	}
	h := p.h
	cuts[0] = 0
	cuts[n] = h.NNZ()
	for i := 1; i < n; i++ {
		cuts[i] = costToPosition(p.mat, p.streams.col32, h, p.cs, bounds[i], p.opts.Metric)
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	regions := make([]Region, n)
	for i, c := range p.cores {
		regions[i] = Region{Core: c, Lo: cuts[i], Hi: cuts[i+1], StartRow: rowOfPosition(h, cuts[i])}
	}
	if err := checkRegions(h, regions); err != nil {
		return err
	}
	// Streams and segment descriptors are never rebuilt on a boundary
	// move: each moved region just re-picks the narrowest format all its
	// rows still support and its execution mode (which rows are cut, and
	// whether their groups patch in parallel).
	p.assignModes(regions)
	p.assignFormats(regions)
	planCopy := plan
	if plan.Weights != nil {
		planCopy.Weights = append([]float64(nil), plan.Weights...)
	}
	p.regions.Store(&regions)
	p.plan.Store(&planCopy)
	p.rebalances.Add(1)
	cRepartitions.Add(1)
	if tel != nil {
		d := time.Since(t0)
		tel.RecordPhase(telemetry.PhaseRepartition, d)
		repartitionHist.Observe(d)
	}
	return nil
}

// planBounds fills bounds (len cores+1) with the cost-space boundary of
// every core slot under plan: level 1 splits the total at PProportion
// between the groups, level 2 splits each group's budget proportionally
// to the weights (equal shares when nil).
func (p *Prepared) planBounds(bounds []float64, plan Plan) error {
	n := len(p.cores)
	total := float64(p.cs[len(p.cs)-1])
	grouped := p.grouped()
	if grouped && (plan.PProportion <= 0 || plan.PProportion >= 1) {
		return fmt.Errorf("core: repartition proportion %v outside (0,1)", plan.PProportion)
	}
	w := func(i int) float64 {
		if plan.Weights == nil {
			return 1
		}
		return plan.Weights[i]
	}
	var sumP, sumE float64
	for i := 0; i < n; i++ {
		wi := w(i)
		if wi < 0 {
			return fmt.Errorf("core: repartition weight %d is negative (%v)", i, wi)
		}
		if grouped && i < p.pCount {
			sumP += wi
		} else {
			sumE += wi
		}
	}
	if grouped && sumP <= 0 {
		return fmt.Errorf("core: repartition P-group weights sum to %v", sumP)
	}
	if sumE <= 0 {
		return fmt.Errorf("core: repartition weights sum to %v", sumE)
	}
	costP := 0.0
	if grouped {
		costP = total * plan.PProportion
	}
	acc := 0.0
	bounds[0] = 0
	for i := 0; i < n; i++ {
		var share float64
		if grouped {
			if i < p.pCount {
				share = costP * w(i) / sumP
			} else {
				share = (total - costP) * w(i) / sumE
			}
		} else {
			share = total * w(i) / sumE
		}
		acc += share
		bounds[i+1] = acc
	}
	bounds[n] = total
	return nil
}

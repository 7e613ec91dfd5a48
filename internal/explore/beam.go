package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isdl"
)

// Beam keeps the top-Width candidates alive per iteration instead of a
// single current point: each iteration evaluates the union of every
// frontier member's neighbours (deduplicated by canonical-ISDL
// fingerprint, so the stage cache and the frontier never re-score a
// repeat), then keeps the Width best of frontier ∪ scored. The search
// stops when no fresh candidate enters the frontier — a strictly wider
// walk than hill climbing, which multi-candidate DSE systems use to
// escape the first local optimum, fed through the same deterministic
// worker pool (bit-identical across Workers settings).
type Beam struct {
	// Width is the frontier size (default 4; 1 behaves like a hill climb
	// that remembers the runner-up's parent).
	Width int
}

// Name implements Strategy.
func (b Beam) Name() string { return fmt.Sprintf("beam-%d", b.width()) }

func (b Beam) width() int {
	if b.Width <= 0 {
		return 4
	}
	return b.Width
}

// beamCand is one frontier member.
type beamCand struct {
	src    string
	action string
	score  float64
	eval   *core.Evaluation
}

// canonical returns the fingerprint key for deduplication: the canonical
// ISDL text of the parsed candidate, so formatting differences (or a raw
// base vs. a regenerated equal candidate) never split equal architectures.
func canonical(src string) (string, error) {
	d, err := isdl.Parse(src)
	if err != nil {
		return "", err
	}
	return isdl.Format(d), nil
}

func (b Beam) run(e *engine) (*Result, error) {
	width := b.width()
	baseEval, baseScore, err := e.evalBase()
	if err != nil {
		return nil, err
	}
	baseKey, err := canonical(e.base)
	if err != nil {
		return nil, err
	}
	res := &Result{Initial: baseEval}
	best := beamCand{src: e.base, action: "base", score: baseScore, eval: baseEval}
	frontier := []beamCand{best}
	// seen holds every candidate ever queued for scoring (by canonical
	// text), so neighbours regenerated by another frontier member — or a
	// later iteration — are never evaluated twice.
	seen := map[string]bool{baseKey: true}

	for iter := 1; iter <= e.maxIters; iter++ {
		iterSpan := e.obs().StartSpan("iteration")
		iterSpan.SetArg("iter", strconv.Itoa(iter))
		iterSpan.SetArg("frontier", strconv.Itoa(len(frontier)))
		// Union of all frontier members' neighbours, deduplicated, in
		// frontier order then move order — a fixed order every Workers
		// setting reduces in.
		srcs := make([]source, len(frontier))
		for i, f := range frontier {
			srcs[i] = source{action: f.action, src: f.src}
		}
		moves, outs, err := e.expand(iterSpan, srcs, seen)
		if err != nil {
			iterSpan.End()
			return nil, err
		}
		if len(moves) == 0 {
			e.emit(Event{Kind: "stop", Iter: iter,
				Line: fmt.Sprintf("iter %d: no unseen neighbour; stopping", iter)})
			iterSpan.End()
			break
		}
		var scored []beamCand
		// Reduce in move order, exactly like the hill climb.
		for i, mv := range moves {
			s, ok := e.scoreOutcome(iter, mv, outs[i])
			if !ok {
				continue
			}
			cand := outs[i].eval
			accepted := s < best.score
			e.record(res, iter, mv, cand, s, accepted)
			if accepted {
				e.emit(Event{Kind: "accept", Iter: iter, Action: mv.action, Score: s, Scored: true, Accepted: true, Eval: cand,
					Line: fmt.Sprintf("iter %d: ACCEPT %s (score %.2f -> %.2f)", iter, mv.action, best.score, s)})
				best = beamCand{src: mv.src, action: mv.action, score: s, eval: cand}
			}
			scored = append(scored, beamCand{src: mv.src, action: mv.action, score: s, eval: cand})
		}
		e.emitCacheStats(iter)
		// Next frontier: the Width best of frontier ∪ scored. The stable
		// sort keeps insertion order on score ties (surviving frontier
		// members before this iteration's candidates, earlier moves before
		// later ones), so the frontier is deterministic.
		inFrontier := map[string]bool{}
		for _, f := range frontier {
			inFrontier[f.src] = true
		}
		pool := append(append([]beamCand(nil), frontier...), scored...)
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].score < pool[j].score })
		if len(pool) > width {
			pool = pool[:width]
		}
		fresh := 0
		scores := make([]float64, len(pool))
		labels := make([]string, len(pool))
		for i, c := range pool {
			scores[i] = c.score
			labels[i] = fmt.Sprintf("%.2f", c.score)
			if !inFrontier[c.src] {
				fresh++
			}
		}
		e.obs().Gauge("explore.frontier.size").Set(int64(len(pool)))
		e.setBestScore(best.score)
		e.emit(Event{Kind: "frontier", Iter: iter, Frontier: scores,
			Line: fmt.Sprintf("iter %d: frontier [%s] (%d fresh)", iter, strings.Join(labels, " "), fresh)})
		iterSpan.SetArg("fresh", strconv.Itoa(fresh))
		iterSpan.End()
		if fresh == 0 {
			e.emit(Event{Kind: "stop", Iter: iter,
				Line: fmt.Sprintf("iter %d: frontier converged; stopping", iter)})
			break
		}
		frontier = pool
	}
	res.Final = best.eval
	res.FinalSource = best.src
	return res, nil
}

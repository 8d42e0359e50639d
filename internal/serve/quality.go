package serve

import (
	"time"

	"repro/internal/quality"
)

// RecordQuality appends a structural quality report to the named slot's
// bounded history (qualityHistory generations; oldest dropped).
// The streaming publisher calls this after each promote it scores.
func (e *Engine) RecordQuality(name string, r *quality.Report) {
	if r == nil {
		return
	}
	e.qualityMu.Lock()
	defer e.qualityMu.Unlock()
	h := append(e.qualityHist[name], r)
	if over := len(h) - qualityHistory; over > 0 {
		h = append(h[:0], h[over:]...)
	}
	e.qualityHist[name] = h
}

// RecordQualityBaseline stores the comparison row — the same metrics
// computed over a cheap structural baseline's partition (PLP) — shown
// alongside the model's history on /api/quality.
func (e *Engine) RecordQualityBaseline(name string, r *quality.Report) {
	e.qualityMu.Lock()
	defer e.qualityMu.Unlock()
	if r == nil {
		delete(e.qualityBaseline, name)
		return
	}
	e.qualityBaseline[name] = r
}

// QualityHistory returns a copy of the named slot's recorded history
// (oldest first) and its baseline row (nil if none).
func (e *Engine) QualityHistory(name string) ([]*quality.Report, *quality.Report) {
	e.qualityMu.Lock()
	defer e.qualityMu.Unlock()
	h := e.qualityHist[name]
	out := make([]*quality.Report, len(h))
	copy(out, h)
	return out, e.qualityBaseline[name]
}

// latestQuality is the /api/stats summary: the newest report per slot.
func (e *Engine) latestQuality() map[string]*quality.Report {
	e.qualityMu.Lock()
	defer e.qualityMu.Unlock()
	if len(e.qualityHist) == 0 {
		return nil
	}
	out := make(map[string]*quality.Report, len(e.qualityHist))
	for name, h := range e.qualityHist {
		if len(h) > 0 {
			out[name] = h[len(h)-1]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// QualityPayload is the /api/quality response: the per-generation report
// history for one snapshot slot plus the structural-baseline comparison
// row, ready for quality.Table rendering client-side.
type QualityPayload struct {
	Snapshot string            `json:"snapshot"`
	History  []*quality.Report `json:"history"`
	Baseline *quality.Report   `json:"baseline,omitempty"`
}

// Table renders the payload as the metric-rows × generations terminal
// table — the history, then the baseline as a comparison column — that
// /api/quality?format=table answers.
func (p *QualityPayload) Table() string {
	reports := p.History[:len(p.History):len(p.History)]
	if p.Baseline != nil {
		reports = append(reports, p.Baseline)
	}
	return quality.Table(reports)
}

// QualityIn answers /api/quality for the named slot, latency-counted like
// every other endpoint. A slot with no recorded history (a static load
// with no streaming publisher, or quality computation disabled) gets a
// one-off membership-shape report computed from the live snapshot, so the
// endpoint always describes the model actually being served.
func (e *Engine) QualityIn(name string) (p *QualityPayload, err error) {
	start := time.Now()
	defer func() { e.lat[epQuality].Observe(time.Since(start), err) }()
	history, baseline := e.QualityHistory(name)
	if len(history) == 0 {
		s, release, aerr := e.AcquireNamed(name)
		if aerr != nil {
			return nil, aerr
		}
		r := quality.FromModel(s.Model, nil, nil)
		r.Version = s.Version
		r.UnixMilli = time.Now().UnixMilli()
		release()
		history = []*quality.Report{r}
	}
	return &QualityPayload{Snapshot: name, History: history, Baseline: baseline}, nil
}

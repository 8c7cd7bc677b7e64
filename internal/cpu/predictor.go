package cpu

// Predictor is a gshare-style branch direction predictor: a table of
// 2-bit saturating counters indexed by PC xor global history. Targets are
// static in the ISA, so no BTB is needed.
type Predictor struct {
	// table holds each counter XOR 1, so the zeroed table a fresh
	// predictor gets reads as every counter weakly not taken (1). The
	// flip keeps the high bit, which is the prediction.
	table   []uint8
	history uint64
	mask    uint64
}

// NewPredictor builds a predictor with 2^bits counters, each weakly not
// taken.
func NewPredictor(bits int) *Predictor {
	size := 1 << bits
	return &Predictor{table: make([]uint8, size), mask: uint64(size - 1)}
}

func (p *Predictor) index(pc int) uint64 {
	return (uint64(pc) ^ p.history) & p.mask
}

// Predict returns the predicted direction for the branch at pc and
// speculatively updates the history (corrected on a squash via Restore).
func (p *Predictor) Predict(pc int) bool {
	taken := p.table[p.index(pc)] >= 2
	p.history = (p.history << 1) | b2u(taken)
	return taken
}

// Train updates the counter for the branch at pc with the actual outcome.
// historyAt is the history snapshot captured at prediction time.
func (p *Predictor) Train(pc int, historyAt uint64, taken bool) {
	idx := (uint64(pc) ^ historyAt) & p.mask
	c := p.table[idx] ^ 1
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	p.table[idx] = c ^ 1
}

// History returns the current global history (snapshot before Predict).
func (p *Predictor) History() uint64 { return p.history }

// Restore rewinds the global history after a misprediction squash and
// records the corrected outcome.
func (p *Predictor) Restore(historyAt uint64, taken bool) {
	p.history = (historyAt << 1) | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

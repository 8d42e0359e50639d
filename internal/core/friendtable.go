package core

import (
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// friendTable holds the friendship links of the user a scratch is
// sampling, one row per incident link: the observed links, then the
// sampled negatives, in userFriendLinks / userNegFriendLinks order. A row
// carries the link's Pólya-Gamma variable, the counterparty's sweep-start
// π̂ base and residual sum, and the counterparty's residual spread over a
// dense |C| row, zero off its support.
//
// Everything in a row is constant through the user's turn: the snapshots
// change only at sweep start, and a link's λ only once its segment's users
// are done. So sampleUser builds the table before the user's first draw
// and clears it after the last, and every document and attribute draw of
// the user reads it: a neighbour's π̂_u·π̂_v gathers u's support from the
// row (dot) instead of merging the two supports, and the neighbour's
// residual at a candidate community is one load (at) instead of a binary
// search. Nothing is kept across users or sweeps: the next turn of the
// same user may see new snapshots and new λ.
//
// Between users the dense rows are all zero — clear zeroes exactly the
// entries build wrote — so neither costs more than the rows' supports.
type friendTable struct {
	user  int32 // whose links the rows hold; -1 between users
	dim   int   // |C|, the length of a dense row
	rows  []friendRow
	resid []float64 // row i's residuals at [i*dim, (i+1)*dim)
}

// friendRow is one link of the table.
type friendRow struct {
	lam      float64 // the link's λ (observed) or λ_neg (sampled negative)
	base     float64 // counterparty snapshot's base ρ/den_v
	sum      float64 // counterparty snapshot's residual sum
	idx      []int32 // counterparty snapshot's support: the entries the row writes
	positive bool    // observed link (logPsi) or sampled negative (logPsiNeg)
}

// buildFriendTable fills sc's table with user u's friendship links (none
// under the friendship ablation). The dense rows are allocated on the
// scratch's first build, for the state's largest friendship degree, so no
// build allocates after that.
func (st *state) buildFriendTable(u int32, sc *scratch) {
	ft := &sc.ft
	if ft.user >= 0 {
		panic("core: friendship table built twice without a clear")
	}
	ft.user = u
	if st.cfg.NoFriendship {
		return
	}
	if n := st.maxFriendRows * ft.dim; len(ft.resid) < n {
		ft.resid = make([]float64, n)
		ft.rows = make([]friendRow, 0, st.maxFriendRows)
	}
	for _, li := range st.userFriendLinks[u] {
		ft.add(st, counterparty(st.g.Friends[li], u), st.lamAt(sc, int(li)), true)
	}
	for _, li := range st.userNegFriendLinks[u] {
		ft.add(st, counterparty(st.negFriends[li], u), st.lamNegAt(sc, int(li)), false)
	}
}

// counterparty returns the endpoint of f that is not u.
func counterparty(f socialgraph.FriendLink, u int32) int32 {
	if f.U == u {
		return f.V
	}
	return f.U
}

// add appends the row of one link to other: its snapshot's residuals are
// scattered into the next dense row.
func (ft *friendTable) add(st *state, other int32, lam float64, positive bool) {
	idx, val := st.piSnapIdx[other], st.piSnapVal[other]
	row := ft.row(len(ft.rows))
	for k, c := range idx {
		row[c] = val[k]
	}
	ft.rows = append(ft.rows, friendRow{
		lam:      lam,
		base:     st.cfg.Rho / st.piHatDen(other), // piSnap's Base, bit for bit
		sum:      st.piSnapSum[other],
		idx:      idx,
		positive: positive,
	})
}

// clear zeroes what the last build wrote and empties the table.
func (ft *friendTable) clear() {
	for i := range ft.rows {
		row := ft.row(i)
		for _, c := range ft.rows[i].idx {
			row[c] = 0
		}
	}
	ft.rows = ft.rows[:0]
	ft.user = -1
}

// forUser returns the table, which must have been built for u.
func (ft *friendTable) forUser(u int32) *friendTable {
	if ft.user != u {
		panic("core: friendship table read outside its user's turn")
	}
	return ft
}

func (ft *friendTable) row(i int) []float64 {
	return ft.resid[i*ft.dim : (i+1)*ft.dim : (i+1)*ft.dim]
}

// at returns row i's counterparty residual at community c: residualAt on
// its snapshot, as one load.
func (ft *friendTable) at(i, c int) float64 { return ft.resid[i*ft.dim+c] }

// dot returns π̂_u·π̂_v for the π̂_u in pu, whose residual sum is sumU, and
// row i's counterparty v. It adds SmoothedVec.DotSums' terms in DotSums'
// order, but reads v's residual at each coordinate of u's support from the
// dense row instead of merging the two supports. A coordinate off v's
// support adds π̂_u[c]·0 = +0 to a sum that is not −0, which leaves the
// sum's bits alone, so the result is DotSums' bit for bit.
func (ft *friendTable) dot(i int, pu *sparse.SmoothedVec, sumU float64) float64 {
	r := &ft.rows[i]
	row := ft.row(i)
	s := pu.Base * r.base * float64(pu.Dim)
	s += pu.Base * r.sum
	s += r.base * sumU
	for k, c := range pu.Idx {
		s += pu.Val[k] * row[c]
	}
	return s
}

package main

import (
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The harness owns its inputs: every request and event below is a pure
// function of (seed, client), and the program under test only ever sees
// the generated values.

type opKind uint8

const (
	opRank opKind = iota
	opMembership
	opDiffusion
	opFoldIn
	numOps
)

var opNames = [numOps]string{"rank", "membership", "diffusion", "foldin"}

func (k opKind) String() string { return opNames[k] }

// readMix is the read traffic: rank 4 : membership 3 : diffusion 2 :
// fold-in 1. readerMix is the paced reader of ingest-read, which sends
// only the two index lookups. The mix is stratified: every block of
// sum(mix) consecutive requests of a client holds exactly these counts, in
// an order the seed shuffles, so that any few hundred consecutive requests
// cost the same and short segments of a run compare.
var (
	readMix   = [numOps]int{4, 3, 2, 1}
	readerMix = [numOps]int{4, 3, 0, 0}
)

// space is the id space requests draw from.
type space struct {
	users, words, topics, buckets int
}

// request is one generated query.
type request struct {
	op     opKind
	words  []int32 // rank
	k      int     // rank, membership
	u, v   int     // membership (u), diffusion (u, v)
	z, b   int     // diffusion topic and time bucket
	foldin *serve.FoldInRequest
}

const (
	rankWords     = 2
	rankK         = 10
	membershipK   = 5
	foldinDocs    = 2
	foldinDocLen  = 8
	foldinSweeps  = 10
	foldinFriends = 3
)

// requestStream yields one client's request sequence.
type requestStream struct {
	r     *rng.RNG
	sp    space
	block []opKind // one block of the mix; block[:left] is still to be sent
	left  int
}

func newRequestStream(seed uint64, client int, mix [numOps]int, sp space) *requestStream {
	s := &requestStream{r: rng.New(seed).Split(uint64(client) + 1), sp: sp}
	for op, n := range mix {
		for i := 0; i < n; i++ {
			s.block = append(s.block, opKind(op))
		}
	}
	return s
}

// nextOp draws the block's remaining operations without replacement and
// starts the next block when it is used up.
func (s *requestStream) nextOp() opKind {
	if s.left == 0 {
		s.left = len(s.block)
	}
	i := s.r.Intn(s.left)
	s.left--
	s.block[i], s.block[s.left] = s.block[s.left], s.block[i]
	return s.block[s.left]
}

func (s *requestStream) next() *request {
	r, sp := s.r, s.sp
	req := &request{op: s.nextOp()}
	switch req.op {
	case opRank:
		req.words = make([]int32, rankWords)
		for i := range req.words {
			req.words[i] = int32(r.Intn(sp.words))
		}
		req.k = rankK
	case opMembership:
		req.u = r.Intn(sp.users)
		req.k = membershipK
	case opDiffusion:
		// u ≠ v, both uniform: with N equal shards a pair crosses shards
		// with probability ≈ (N−1)/N, which is what exercises the router's
		// row fetch.
		req.u = r.Intn(sp.users)
		req.v = r.Intn(sp.users - 1)
		if req.v >= req.u {
			req.v++
		}
		req.z = r.Intn(sp.topics)
		req.b = r.Intn(sp.buckets)
	case opFoldIn:
		docs := make([][]int32, foldinDocs)
		for i := range docs {
			doc := make([]int32, foldinDocLen)
			for j := range doc {
				doc[j] = int32(r.Intn(sp.words))
			}
			docs[i] = doc
		}
		// Each friend is uniform over users, and the three are a third of
		// the id space apart: whichever replica of a sharded fleet owns the
		// request, the router has rows to hydrate from another one, so every
		// fold-in is the same kind of work.
		friends := make([]int32, foldinFriends)
		first := r.Intn(sp.users)
		for i := range friends {
			friends[i] = int32((first + i*sp.users/foldinFriends) % sp.users)
		}
		req.foldin = &serve.FoldInRequest{Docs: docs, Friends: friends, Seed: r.Uint64(), Sweeps: foldinSweeps}
	}
	return req
}

// eventStream yields the write traffic: 6/8 documents on base users,
// 1/8 edges between base users, 1/8 new users. Only base-population ids
// are drawn, so every event validates whatever was ingested before it.
type eventStream struct {
	r  *rng.RNG
	sp space
	// touched collects the users whose documents changed, in first-touch
	// order; the correctness gate queries them after the run.
	touched []int32
	seen    map[int32]bool
}

func newEventStream(seed uint64, client int, sp space) *eventStream {
	return &eventStream{r: rng.New(seed).Split(uint64(client) + 1), sp: sp, seen: map[int32]bool{}}
}

func (s *eventStream) next() stream.Event {
	r, sp := s.r, s.sp
	switch r.Intn(8) {
	case 0:
		return stream.Event{Type: stream.EvAddUser}
	case 1:
		u := r.Intn(sp.users)
		v := r.Intn(sp.users - 1)
		if v >= u {
			v++
		}
		return stream.Event{Type: stream.EvAddEdge, User: int32(u), Target: int32(v)}
	default:
		doc := make([]int32, foldinDocLen)
		for j := range doc {
			doc[j] = int32(r.Intn(sp.words))
		}
		u := int32(r.Intn(sp.users))
		if !s.seen[u] {
			s.seen[u] = true
			s.touched = append(s.touched, u)
		}
		return stream.Event{Type: stream.EvAddDoc, User: u, Time: int64(r.Intn(1 << 20)), Words: doc}
	}
}

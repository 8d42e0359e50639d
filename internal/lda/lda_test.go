package lda

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// plantedCorpus builds documents from k disjoint word blocks: doc i uses
// only words from block i%k, so topics are perfectly identifiable.
func plantedCorpus(k, docsPerTopic, wordsPerDoc, vocabPerTopic int, seed uint64) ([][]int32, int) {
	r := rng.New(seed)
	var docs [][]int32
	for z := 0; z < k; z++ {
		for d := 0; d < docsPerTopic; d++ {
			words := make([]int32, wordsPerDoc)
			for i := range words {
				words[i] = int32(z*vocabPerTopic + r.Intn(vocabPerTopic))
			}
			docs = append(docs, words)
		}
	}
	return docs, k * vocabPerTopic
}

func TestTrainRecoversPlantedTopics(t *testing.T) {
	const k = 4
	docs, numWords := plantedCorpus(k, 60, 8, 12, 1)
	m := Train(docs, numWords, Config{NumTopics: k, Iters: 60, Seed: 2})
	// Every doc's dominant topic must match within its planted block:
	// measure purity of the dominant-topic clustering.
	counts := map[[2]int]int{}
	for d := range docs {
		counts[[2]int{m.DominantTopic(d), d / 60}]++
	}
	bestPerTopic := map[int]int{}
	total := 0
	for key, n := range counts {
		if n > bestPerTopic[key[0]] {
			bestPerTopic[key[0]] = n
		}
		total += n
	}
	pure := 0
	for _, n := range bestPerTopic {
		pure += n
	}
	if purity := float64(pure) / float64(total); purity < 0.9 {
		t.Fatalf("planted-topic purity = %v, want >= 0.9", purity)
	}
}

func TestDistributionsNormalized(t *testing.T) {
	docs, numWords := plantedCorpus(3, 20, 6, 10, 3)
	m := Train(docs, numWords, Config{NumTopics: 3, Iters: 20, Seed: 4})
	for z := 0; z < 3; z++ {
		var s float64
		for w := 0; w < numWords; w++ {
			p := m.PhiAt(z, w)
			if p <= 0 {
				t.Fatalf("PhiAt(%d,%d) = %v", z, w, p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("phi_%d sums to %v", z, s)
		}
		row := m.Phi(z)
		if len(row) != numWords {
			t.Fatalf("Phi row length %d", len(row))
		}
	}
	for d := range docs {
		s := 0.0
		for _, p := range m.DocTopics(d) {
			if p <= 0 {
				t.Fatalf("doc %d has non-positive topic prob", d)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("doc %d topics sum to %v", d, s)
		}
	}
}

func TestPerplexityOrdering(t *testing.T) {
	docs, numWords := plantedCorpus(3, 40, 8, 10, 8)
	m := Train(docs, numWords, Config{NumTopics: 3, Iters: 40, Seed: 9})
	learned := make([][]float64, len(docs))
	uniform := make([][]float64, len(docs))
	for d := range docs {
		learned[d] = m.DocTopics(d)
		uniform[d] = []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	pl := m.Perplexity(docs, learned)
	pu := m.Perplexity(docs, uniform)
	if !(pl < pu) {
		t.Fatalf("learned perplexity %v not below uniform %v", pl, pu)
	}
	if pl >= float64(numWords) {
		t.Fatalf("learned perplexity %v not below vocab size %d", pl, numWords)
	}
}

func TestTrainPanicsWithoutTopics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NumTopics=0 did not panic")
		}
	}()
	Train([][]int32{{0}}, 1, Config{})
}

func TestEmptyCorpus(t *testing.T) {
	m := Train(nil, 10, Config{NumTopics: 2, Iters: 5})
	if m.NumTopics != 2 {
		t.Fatal("empty corpus model malformed")
	}
	// Phi must still be a valid (smoothed-uniform) distribution.
	var s float64
	for w := 0; w < 10; w++ {
		s += m.PhiAt(0, w)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("empty-corpus phi sums to %v", s)
	}
}

func BenchmarkTrain(b *testing.B) {
	docs, numWords := plantedCorpus(10, 50, 8, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(docs, numWords, Config{NumTopics: 10, Iters: 10, Seed: uint64(i)})
	}
}

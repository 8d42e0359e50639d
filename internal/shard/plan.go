package shard

// Range planning: choosing the user boundaries of a shard group.
//
// A user's shard weight is the Π row they pin in their shard file (8·cols
// bytes). Boundaries come from a prefix-sum walk over the weights:
// boundary k is the first user at which the cumulative weight reaches k/N
// of the total. Every row weighs the same today, so the user ranges come
// out equal-width; the walk stays for rows of unequal byte weight.

import "fmt"

// PlanRanges partitions users [0,users) into shards contiguous ranges,
// weighting each user by one Π row of cols columns. Shards may be empty
// when users < shards; every user lands in exactly one range.
func PlanRanges(users, shards, cols int) ([]Range, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if users < 0 {
		return nil, fmt.Errorf("shard: negative user count %d", users)
	}
	w := uint64(8 * cols)
	if w == 0 {
		w = 1 // weightless rows: fall back to equal-width
	}
	total := uint64(users) * w
	// Boundary k is the first user index at which the cumulative weight
	// reaches k·total/shards.
	userBound := make([]int, shards+1)
	userBound[shards] = users
	var prefix uint64
	k := 1
	for u := 0; u < users && k < shards; u++ {
		prefix += w
		for k < shards && prefix*uint64(shards) >= total*uint64(k) {
			userBound[k] = u + 1
			k++
		}
	}
	for ; k < shards; k++ {
		userBound[k] = users
	}
	ranges := make([]Range, shards)
	for i := range ranges {
		ranges[i] = Range{Index: i, UserLo: userBound[i], UserHi: userBound[i+1]}
	}
	return ranges, nil
}

// Package suggest picks did-you-mean candidates for mistyped names:
// CLI subcommands, fault backends and compaction modes.
package suggest

// Closest returns the entry of names nearest to s by edit distance, or
// "" when none is plausibly close: at most 3 edits, and at most half
// the length of s. Ties go to the earliest entry.
func Closest(s string, names []string) string {
	best, bestDist := "", min(3, len(s)/2)+1
	for _, n := range names {
		if d := editDistance(s, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

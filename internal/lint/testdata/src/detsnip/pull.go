package detsnip

import "iter"

// pull drives a sequence through iter.Pull: a coroutine on a goroutine
// of its own, so det-go.
func pull(seq iter.Seq[int]) int {
	next, stop := iter.Pull(seq)
	defer stop()
	v, _ := next()
	return v
}

// pull2 is the two-value form.
func pull2(seq iter.Seq2[int, int]) int {
	next, stop := iter.Pull2(seq)
	defer stop()
	k, v, _ := next()
	return k + v
}

// ranged consumes the same sequence with range-over-func: a plain
// call on the caller's goroutine, no finding.
func ranged(seq iter.Seq[int]) int {
	t := 0
	for v := range seq {
		t += v
	}
	return t
}

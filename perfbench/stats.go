package main

import (
	"errors"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over fewer than 1000 samples is an anecdote.
const minBeyond = 10

// errTooFewSamples reports a percentile the run holds too few samples for.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which it sorts in place. It fails unless at least minBeyond samples lie
// strictly beyond the returned rank.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, errTooFewSamples
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when the base is empty. Every ratio the
// benchmark reports goes through one of the named helpers below, so its base
// is written down once.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cacheHitRatio: shared-cache explorations served without probing, over all
// cache lookups (hits plus misses).
func cacheHitRatio(hits, misses uint64) float64 {
	return ratio(float64(hits), float64(hits+misses))
}

// probesSavedRatio: wire probes the cache avoided, over the probes the
// campaign would have sent without it (saved plus sent).
func probesSavedRatio(saved, sent uint64) float64 {
	return ratio(float64(saved), float64(saved+sent))
}

// replyRatio: exchanges that drew a reply, over all exchanges.
func replyRatio(replies, exchanges uint64) float64 {
	return ratio(float64(replies), float64(exchanges))
}

// busyShare: time spent inside netsim exchanges, over the per-target session
// time that contains them.
func busyShare(exchangeNS, sessionNS int64) float64 {
	return ratio(float64(exchangeNS), float64(sessionNS))
}

// successRatio: operations that succeeded, over operations attempted.
func successRatio(attempted, failed int) float64 {
	return ratio(float64(attempted-failed), float64(attempted))
}

// traceOverhead: the share of untraced throughput lost when tracing is on.
func traceOverhead(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 1 - traced/untraced
}

// validName reports whether s is a legal metric or workload name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.' and
// '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters, digits,
// '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

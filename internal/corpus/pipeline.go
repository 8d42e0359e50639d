package corpus

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases text and splits it into tokens. Hashtags keep their
// leading '#' (the paper treats hashtags as first-class content words and
// uses them as ranking queries); everything else is split on
// non-alphanumeric runes, with internal apostrophes preserved so the
// stop-word list can match contractions.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	prevSpaceOrStart := true
	for _, r := range strings.ToLower(text) {
		switch {
		case r == '#' && prevSpaceOrStart:
			flush()
			b.WriteRune(r)
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			b.WriteRune(r)
		case r == '\'' && b.Len() > 0:
			b.WriteRune(r)
		default:
			flush()
		}
		prevSpaceOrStart = unicode.IsSpace(r)
	}
	flush()
	// Trim trailing apostrophes left by possessives ("users'").
	for i, t := range tokens {
		tokens[i] = strings.TrimRight(t, "'")
	}
	out := tokens[:0]
	for _, t := range tokens {
		if t != "" && t != "#" {
			out = append(out, t)
		}
	}
	return out
}

// adverbSuffixes drive the heuristic POS filter: the paper keeps nouns,
// verbs and hashtags after running the Stanford tagger; our lexical
// substitute drops function words (the stop list), pure numbers and
// -ly adverbs. See README.md (design notes) for why this substitution is behaviour-
// preserving for the pipeline.
var adverbSuffixes = []string{"ly"}

// KeepAsContent reports whether the heuristic POS filter keeps token t.
func KeepAsContent(t string) bool {
	if strings.HasPrefix(t, "#") {
		return true
	}
	if isNumeric(t) {
		return false
	}
	for _, suf := range adverbSuffixes {
		if len(t) > len(suf)+2 && strings.HasSuffix(t, suf) {
			return false
		}
	}
	return true
}

func isNumeric(t string) bool {
	if t == "" {
		return false
	}
	for _, r := range t {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Pipeline bundles the Sect. 6.1 preprocessing options.
type Pipeline struct {
	// RemoveStopwords drops tokens in the built-in stop list.
	RemoveStopwords bool
	// Stem applies the Porter stemmer (hashtags are never stemmed).
	Stem bool
	// POSFilter applies the heuristic noun/verb/hashtag filter.
	POSFilter bool
	// MinDocTokens drops documents with fewer tokens after filtering
	// (the paper removes documents with fewer than two words).
	MinDocTokens int
}

// DefaultPipeline mirrors the paper's preprocessing: stop-word removal,
// stemming, POS filtering and the two-word minimum.
func DefaultPipeline() Pipeline {
	return Pipeline{RemoveStopwords: true, Stem: true, POSFilter: true, MinDocTokens: 2}
}

// Process runs the pipeline over raw text and returns the kept tokens, or
// nil if the document falls below MinDocTokens.
func (p Pipeline) Process(text string) []string {
	raw := Tokenize(text)
	kept := raw[:0]
	for _, t := range raw {
		if p.RemoveStopwords && IsStopword(t) {
			continue
		}
		if p.POSFilter && !KeepAsContent(t) {
			continue
		}
		if p.Stem && !strings.HasPrefix(t, "#") {
			t = PorterStem(t)
		}
		if t == "" {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) < p.MinDocTokens {
		return nil
	}
	return kept
}

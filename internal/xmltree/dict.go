package xmltree

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Dict is the term dictionary underlying the Boolean-vector model of TEXT
// values: a bijection between index terms and dense integer ids.
type Dict struct {
	terms []string
	ids   map[string]int
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int)}
}

// Intern returns the id for term, adding it to the dictionary if absent.
// A new term is stored as a copy, so the dictionary never keeps the
// caller's backing memory alive.
func (d *Dict) Intern(term string) int {
	if id, ok := d.ids[term]; ok {
		return id
	}
	return d.add(strings.Clone(term))
}

// internBytes is Intern for a term held in a scratch buffer: the lookup
// does not allocate, and a new term is copied out.
func (d *Dict) internBytes(term []byte) int {
	if id, ok := d.ids[string(term)]; ok {
		return id
	}
	return d.add(string(term))
}

func (d *Dict) add(term string) int {
	id := len(d.terms)
	d.terms = append(d.terms, term)
	d.ids[term] = id
	return id
}

// ID returns the id for term and whether the term is present.
func (d *Dict) ID(term string) (int, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the term with the given id.
func (d *Dict) Term(id int) string { return d.terms[id] }

// Len returns the number of distinct terms.
func (d *Dict) Len() int { return len(d.terms) }

// Terms returns all terms ordered by id. The slice is owned by the
// dictionary and must not be mutated.
func (d *Dict) Terms() []string { return d.terms }

// Tokenize splits free text into lowercase index terms, dropping
// punctuation and single-character tokens. This is the standard Boolean-IR
// normalization assumed by the paper's TEXT model.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.ToLower(f)
		if len(f) > 1 {
			out = append(out, f)
		}
	}
	return out
}

// countTerms returns len(Tokenize(text)), counting no further than limit.
func countTerms(text string, limit int) int {
	n := 0
	for i := 0; n < limit; {
		start, end, kind := nextWord(text, i)
		if start < 0 {
			break
		}
		size := end - start
		if kind == wordUnicode {
			size = lowerLen(text[start:end])
		}
		if size > 1 {
			n++
		}
		i = end
	}
	return n
}

// The kinds of word nextWord finds.
const (
	wordLower   = iota // lower-case ASCII letters and digits: its own term
	wordASCII          // ASCII with an upper-case letter: lower-casing keeps its length
	wordUnicode        // holds a non-ASCII rune: lower-casing may change its length
)

// wordByte classifies ASCII bytes for nextWord: 0 separates words,
// otherwise the byte's word kind plus one.
var wordByte = func() (t [utf8.RuneSelf]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = 1 + wordLower
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = 1 + wordLower
		t[c-'a'+'A'] = 1 + wordASCII
	}
	return t
}()

// nextWord returns the bounds of the first maximal run of letters and
// digits in text at or after byte i (one of Tokenize's fields before
// lower-casing and the length filter), or start -1 when there is none,
// and the run's kind. countTerms and InternText scan with it, so they
// find Tokenize's terms without building its slice.
func nextWord(text string, i int) (start, end, kind int) {
	start = -1
	for i < len(text) {
		c, size := text[i], 1
		class := 0
		if c < utf8.RuneSelf {
			class = int(wordByte[c])
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				class = 1 + wordUnicode
			}
		}
		if class == 0 {
			if start >= 0 {
				return start, i, kind
			}
		} else {
			if start < 0 {
				start = i
			}
			kind = max(kind, class-1)
		}
		i += size
	}
	return start, len(text), kind
}

// appendLower appends strings.ToLower(word) to dst; word holds only
// letters and digits, so it is valid UTF-8.
func appendLower(dst []byte, word string) []byte {
	for _, r := range word {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// lowerLen returns len(strings.ToLower(word)) for a word of letters and
// digits: lower-casing can change a rune's encoded length.
func lowerLen(word string) int {
	n := 0
	for _, r := range word {
		n += utf8.RuneLen(unicode.ToLower(r))
	}
	return n
}

// InternText tokenizes text and returns the sorted set of distinct term
// ids (the sparse Boolean vector of the paper's IR model). Terms are
// interned in text order, so new terms take ids in order of first use.
func (d *Dict) InternText(text string) []int {
	var idBuf [64]int
	var lowBuf [64]byte
	ids, low := idBuf[:0], lowBuf[:0]
	for i := 0; ; {
		start, end, kind := nextWord(text, i)
		if start < 0 {
			break
		}
		if kind == wordLower {
			if end-start > 1 {
				ids = append(ids, d.Intern(text[start:end]))
			}
		} else if low = appendLower(low[:0], text[start:end]); len(low) > 1 {
			ids = append(ids, d.internBytes(low))
		}
		i = end
	}
	if len(ids) == 0 {
		return nil
	}
	return sortedSet(ids)
}

// InternTerms interns a pre-tokenized set of terms, returning sorted
// distinct ids.
func (d *Dict) InternTerms(terms []string) []int {
	var idBuf [64]int
	ids := idBuf[:0]
	for _, t := range terms {
		ids = append(ids, d.Intern(t))
	}
	return sortedSet(ids)
}

// sortedSet sorts and deduplicates ids in place and returns a copy of the
// distinct ids at exact length, so the caller's scratch can be reused.
func sortedSet(ids []int) []int {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return append(make([]int, 0, len(ids)), ids...)
}

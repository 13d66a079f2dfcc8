package query

import (
	"fmt"
	"strconv"
	"strings"

	"xcluster/internal/xmltree"
)

// PredKind identifies the class of a value predicate, matching the three
// value types of the data model.
type PredKind uint8

const (
	// KindRange is a NUMERIC range predicate [l,h].
	KindRange PredKind = iota
	// KindContains is a STRING substring predicate contains(qs).
	KindContains
	// KindFTContains is a TEXT keyword predicate ftcontains(t1..tk).
	KindFTContains
	// KindFTSim is a TEXT similarity predicate ftsim(min, t1..tk): at
	// least min of the listed terms must be present.
	KindFTSim

	// numPredKinds is the sentinel one past the last kind; it keeps the
	// exhaustiveness test honest when a kind is added.
	numPredKinds
)

func (k PredKind) String() string {
	switch k {
	case KindRange:
		return "numeric"
	case KindContains:
		return "string"
	case KindFTContains:
		return "text"
	case KindFTSim:
		return "text-sim"
	default:
		return fmt.Sprintf("PredKind(%d)", uint8(k))
	}
}

// ValueType returns the element value type a predicate kind applies to
// and whether the kind is known. Estimation uses it to reject clusters
// whose value type cannot satisfy the predicate; keeping the mapping
// here (next to the kind list) means a new kind cannot silently fall
// through a copy of this switch elsewhere.
func (k PredKind) ValueType() (xmltree.ValueType, bool) {
	switch k {
	case KindRange:
		return xmltree.TypeNumeric, true
	case KindContains:
		return xmltree.TypeString, true
	case KindFTContains, KindFTSim:
		return xmltree.TypeText, true
	default:
		return 0, false
	}
}

// Pred is a value predicate attached to a query variable. Match evaluates
// the predicate against the value of a document element.
type Pred interface {
	Kind() PredKind
	Match(t *xmltree.Tree, n *xmltree.Node) bool
	String() string
}

// Range selects NUMERIC values v with Lo <= v <= Hi.
type Range struct {
	Lo, Hi int
}

// Kind implements Pred.
func (Range) Kind() PredKind { return KindRange }

// Match implements Pred.
func (p Range) Match(_ *xmltree.Tree, n *xmltree.Node) bool {
	return n.Type == xmltree.TypeNumeric && n.Num >= p.Lo && n.Num <= p.Hi
}

func (p Range) String() string { return predString(p) }

func (p Range) renderLen() int { return len("range(,)") + intLen(p.Lo) + intLen(p.Hi) }

func (p Range) render(sb *strings.Builder) {
	var buf [20]byte
	sb.WriteString("range(")
	sb.Write(strconv.AppendInt(buf[:0], int64(p.Lo), 10))
	sb.WriteByte(',')
	sb.Write(strconv.AppendInt(buf[:0], int64(p.Hi), 10))
	sb.WriteByte(')')
}

// Contains selects STRING values that contain Substr (like SQL LIKE
// '%Substr%').
type Contains struct {
	Substr string
}

// Kind implements Pred.
func (Contains) Kind() PredKind { return KindContains }

// Match implements Pred.
func (p Contains) Match(_ *xmltree.Tree, n *xmltree.Node) bool {
	return n.Type == xmltree.TypeString && strings.Contains(n.Str, p.Substr)
}

func (p Contains) String() string { return predString(p) }

func (p Contains) renderLen() int { return len("contains()") + len(p.Substr) }

func (p Contains) render(sb *strings.Builder) {
	sb.WriteString("contains(")
	sb.WriteString(p.Substr)
	sb.WriteByte(')')
}

// FTContains selects TEXT values whose Boolean term vector contains every
// listed term (exact term matches in the set-theoretic IR model).
type FTContains struct {
	Terms []string
}

// Kind implements Pred.
func (FTContains) Kind() PredKind { return KindFTContains }

// Match implements Pred.
func (p FTContains) Match(t *xmltree.Tree, n *xmltree.Node) bool {
	if n.Type != xmltree.TypeText {
		return false
	}
	for _, term := range p.Terms {
		id, ok := t.Dict.ID(term)
		if !ok || !n.HasTerm(id) {
			return false
		}
	}
	return true
}

func (p FTContains) String() string { return predString(p) }

func (p FTContains) renderLen() int { return len("ftcontains()") + termsLen(p.Terms) }

func (p FTContains) render(sb *strings.Builder) {
	sb.WriteString("ftcontains(")
	writeTerms(sb, p.Terms)
	sb.WriteByte(')')
}

// FTSim selects TEXT values whose term vector contains at least Min of
// the listed terms — the set-theoretic document-similarity predicate of
// the Boolean IR model the paper notes its techniques also handle
// (ftcontains is the special case Min = len(Terms)).
type FTSim struct {
	Terms []string
	Min   int
}

// Kind implements Pred.
func (FTSim) Kind() PredKind { return KindFTSim }

// Match implements Pred.
func (p FTSim) Match(t *xmltree.Tree, n *xmltree.Node) bool {
	if n.Type != xmltree.TypeText {
		return false
	}
	hits := 0
	for _, term := range p.Terms {
		if id, ok := t.Dict.ID(term); ok && n.HasTerm(id) {
			hits++
			if hits >= p.Min {
				return true
			}
		}
	}
	return hits >= p.Min
}

func (p FTSim) String() string { return predString(p) }

func (p FTSim) renderLen() int { return len("ftsim(,)") + intLen(p.Min) + termsLen(p.Terms) }

func (p FTSim) render(sb *strings.Builder) {
	var buf [20]byte
	sb.WriteString("ftsim(")
	sb.Write(strconv.AppendInt(buf[:0], int64(p.Min), 10))
	sb.WriteByte(',')
	writeTerms(sb, p.Terms)
	sb.WriteByte(')')
}

// predLen is the length of p's rendering. The built-in predicates
// report it (renderLen) and render straight into the caller's buffer
// (render); the type switches, unlike an interface, keep that buffer
// off the heap.
func predLen(p Pred) int {
	switch p := p.(type) {
	case Range:
		return p.renderLen()
	case Contains:
		return p.renderLen()
	case FTContains:
		return p.renderLen()
	case FTSim:
		return p.renderLen()
	}
	return len(p.String())
}

// writePred renders p into sb; predicates outside this package fall
// back to their String method.
func writePred(sb *strings.Builder, p Pred) {
	switch p := p.(type) {
	case Range:
		p.render(sb)
	case Contains:
		p.render(sb)
	case FTContains:
		p.render(sb)
	case FTSim:
		p.render(sb)
	default:
		sb.WriteString(p.String())
	}
}

// predString renders one predicate on its own.
func predString(p Pred) string {
	var sb strings.Builder
	sb.Grow(predLen(p))
	writePred(&sb, p)
	return sb.String()
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(v), 10))
}

// termsLen is the length of terms joined by commas.
func termsLen(terms []string) int {
	n := 0
	for i, t := range terms {
		if i > 0 {
			n++
		}
		n += len(t)
	}
	return n
}

// writeTerms writes terms joined by commas.
func writeTerms(sb *strings.Builder, terms []string) {
	for i, t := range terms {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t)
	}
}

package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// MaxBound is the open upper bound used when a comparison predicate such
// as [year>2000] leaves one side of the range unspecified.
const MaxBound = 1<<31 - 1

// Parse parses a twig query from an XPath-fragment string. The supported
// grammar covers the paper's query class:
//
//	path      := step+ bracket* (path)?          chained variables
//	step      := ("/" | "//") (ident | "*")
//	bracket   := "[" (cond | branch) "]"
//	cond      := "range(" int "," int ")"
//	           | cmp int                          e.g. >2000, <=1995, =7
//	           | "contains(" chars ")"
//	           | "ftcontains(" term ("," term)* ")"
//	branch    := "."? path-with-implicit-child [cond]
//
// Examples:
//
//	//paper[year>2000][abstract ftcontains(synopsis,xml)]/title[contains(Tree)]
//	//open_auction/bidder/increase[range(10,50)]
//	//person[.//profile/age>=30]/name
//
// Following Figure 2 of the paper, every bracketed branch that names a
// path becomes a query variable; conditions without a path apply to the
// variable whose step they follow.
func Parse(s string) (*Query, error) {
	p := parserPool.Get().(*parser)
	q, err := p.parse(s)
	p.release()
	return q, err
}

// parse is Parse on a reset parser taken from the pool.
func (p *parser) parse(s string) (*Query, error) {
	p.s = s
	p.skipSpace()
	if !p.peekIs('/') {
		return nil, p.errf("query must start with '/' or '//'")
	}
	root, err := p.parseChain(false)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errf("trailing input %q", p.s[p.pos:])
	}
	p.kids = append(p.kids, root) // q0's child list, after its subtree
	return p.build(), nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseError reports a syntax error in a query string together with the
// byte offset at which parsing failed, so callers (editors, HTTP
// services) can point at the offending position instead of grepping the
// message.
type ParseError struct {
	// Input is the full query string handed to Parse.
	Input string
	// Offset is the byte offset in Input where parsing failed.
	Offset int
	// Msg describes the failure.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("query: parse error at offset %d: %s", e.Offset, e.Msg)
}

// parser is Parse's state: the input, the position, and the query
// under construction in scratch arrays that build copies out at exact
// sizes. Parsers are pooled, so once the pool is warm a parse allocates
// only the query's blocks and its predicates.
type parser struct {
	s   string
	pos int
	// steps holds every variable's steps, one contiguous run per
	// variable.
	steps []Step
	// vars holds the variables in pre-order (a variable before its
	// children): each one's run of steps and of kids, and its predicate.
	vars []scratchVar
	// kids holds the child lists as indices into vars, each list
	// contiguous and written once its variable's subtree is parsed, so
	// a variable's list follows those of its descendants. The last list
	// is q0's: the root alone.
	kids []int32
	// pending is a stack of the child indices of the chains in
	// progress: a chain moves its children to kids when it ends, so
	// its list stays contiguous although its children's lists are
	// written in between.
	pending []int32
}

// scratchVar is one variable under construction: steps[stepLo:stepHi]
// and kids[kidLo:kidHi] are its runs.
type scratchVar struct {
	stepLo, stepHi int32
	kidLo, kidHi   int32
	pred           Pred
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// maxPooledParse is the largest scratch array a parser keeps when it
// goes back to the pool, so one huge query does not pin its memory.
const maxPooledParse = 1024

// release clears the parser, so the pool keeps neither the input nor a
// predicate alive, and returns it to the pool unless a huge query grew
// its scratch.
func (p *parser) release() {
	if max(cap(p.steps), cap(p.vars), cap(p.kids), cap(p.pending)) > maxPooledParse {
		return
	}
	clear(p.steps)
	clear(p.vars)
	*p = parser{steps: p.steps[:0], vars: p.vars[:0], kids: p.kids[:0], pending: p.pending[:0]}
	parserPool.Put(p)
}

// build copies the parsed query out of the scratch arrays into four
// exactly sized blocks: the steps, the nodes, every child list with
// q0's last, and the Query. Every slice into a block ends its capacity
// at its own end (three-index), so nothing can append across a
// neighbour.
func (p *parser) build() *Query {
	steps := make([]Step, len(p.steps))
	copy(steps, p.steps)
	nodes := make([]Node, len(p.vars))
	kids := make([]*Node, len(p.kids))
	for i, k := range p.kids {
		kids[i] = &nodes[k]
	}
	for i, v := range p.vars {
		n := &nodes[i]
		n.Steps = steps[v.stepLo:v.stepHi:v.stepHi]
		n.Pred = v.pred
		if v.kidHi > v.kidLo {
			n.Children = kids[v.kidLo:v.kidHi:v.kidHi]
		}
	}
	r := len(kids) - 1
	return &Query{Roots: kids[r:]}
}

// splitTerms returns the comma-separated terms of a full-text
// predicate, lowercased and trimmed, with empty terms dropped, in one
// slice sized by the commas.
func splitTerms(arg string) []string {
	terms := make([]string, 0, strings.Count(arg, ",")+1)
	for {
		t, rest, more := strings.Cut(arg, ",")
		if t = strings.TrimSpace(strings.ToLower(t)); t != "" {
			terms = append(terms, t)
		}
		if !more {
			return terms
		}
		arg = rest
	}
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Input: p.s, Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peekIs(c byte) bool {
	return p.pos < len(p.s) && p.s[p.pos] == c
}

func (p *parser) eat(c byte) bool {
	if p.peekIs(c) {
		p.pos++
		return true
	}
	return false
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.s) && isIdentRune(rune(p.s[p.pos])) {
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *parser) number() (int, error) {
	start := p.pos
	if p.peekIs('-') {
		p.pos++
	}
	for p.pos < len(p.s) && unicode.IsDigit(rune(p.s[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected a number")
	}
	n, err := strconv.Atoi(p.s[start:p.pos])
	if err != nil {
		return 0, p.errf("number %q out of range", p.s[start:p.pos])
	}
	return n, nil
}

// parseSteps consumes one or more steps into p.steps. When
// implicitChild is true, a leading bare identifier (branch shorthand
// like [year>2000]) is accepted as a child step.
func (p *parser) parseSteps(implicitChild bool) error {
	lo := len(p.steps)
	if implicitChild {
		p.eat('.') // branch shorthand: [./x], [.//x]
		if p.pos < len(p.s) && isIdentRune(rune(p.s[p.pos])) {
			p.steps = append(p.steps, Step{Axis: Child, Label: p.ident()})
		}
	}
	for p.peekIs('/') {
		p.pos++
		axis := Child
		if p.eat('/') {
			axis = Descendant
		}
		var label string
		if p.eat('*') {
			label = Wildcard
		} else {
			label = p.ident()
			if label == "" {
				return p.errf("expected element name or *")
			}
		}
		p.steps = append(p.steps, Step{Axis: axis, Label: label})
	}
	if len(p.steps) == lo {
		return p.errf("expected a path step")
	}
	return nil
}

// parseChain parses a variable chain: steps, brackets, then an optional
// continuation path that becomes a child variable. It returns the
// variable's index in p.vars.
func (p *parser) parseChain(implicitChild bool) (int32, error) {
	lo := int32(len(p.steps))
	if err := p.parseSteps(implicitChild); err != nil {
		return 0, err
	}
	idx := int32(len(p.vars))
	p.vars = append(p.vars, scratchVar{stepLo: lo, stepHi: int32(len(p.steps))})

	// An inline condition may follow the path inside a branch, separated
	// by whitespace: [abstract ftcontains(synopsis,xml)].
	p.skipSpace()
	if pred, ok, err := p.tryCond(); err != nil {
		return 0, err
	} else if ok {
		p.vars[idx].pred = pred
	}

	base := len(p.pending)
	for p.peekIs('[') {
		p.pos++
		p.skipSpace()
		if pred, ok, err := p.tryCond(); err != nil {
			return 0, err
		} else if ok {
			if p.vars[idx].pred != nil {
				return 0, p.errf("variable already has a value predicate")
			}
			p.vars[idx].pred = pred
		} else {
			branch, err := p.parseChain(true)
			if err != nil {
				return 0, err
			}
			p.pending = append(p.pending, branch)
		}
		p.skipSpace()
		if !p.eat(']') {
			return 0, p.errf("expected ']'")
		}
	}

	if p.peekIs('/') {
		child, err := p.parseChain(false)
		if err != nil {
			return 0, err
		}
		p.pending = append(p.pending, child)
	}
	v := &p.vars[idx]
	v.kidLo = int32(len(p.kids))
	p.kids = append(p.kids, p.pending[base:]...)
	v.kidHi = int32(len(p.kids))
	p.pending = p.pending[:base]
	return idx, nil
}

// closedRange returns the condition [lo,hi], rejecting it when empty.
func (p *parser) closedRange(lo, hi int) (Pred, bool, error) {
	if lo > hi {
		return nil, false, p.errf("empty range [%d,%d]", lo, hi)
	}
	return Range{Lo: lo, Hi: hi}, true, nil
}

// tryCond attempts to parse a value condition at the current position. It
// reports (nil, false, nil) when the input is not a condition.
func (p *parser) tryCond() (Pred, bool, error) {
	rest := p.s[p.pos:]
	switch {
	case strings.HasPrefix(rest, "range("):
		p.pos += len("range(")
		lo, err := p.number()
		if err != nil {
			return nil, false, err
		}
		if !p.eat(',') {
			return nil, false, p.errf("expected ',' in range()")
		}
		p.skipSpace()
		hi, err := p.number()
		if err != nil {
			return nil, false, err
		}
		if !p.eat(')') {
			return nil, false, p.errf("expected ')' after range")
		}
		return p.closedRange(lo, hi)

	case strings.HasPrefix(rest, "contains("):
		p.pos += len("contains(")
		end := strings.IndexByte(p.s[p.pos:], ')')
		if end < 0 {
			return nil, false, p.errf("unterminated contains(")
		}
		arg := p.s[p.pos : p.pos+end]
		p.pos += end + 1
		if arg == "" {
			return nil, false, p.errf("contains() needs a substring")
		}
		return Contains{Substr: arg}, true, nil

	case strings.HasPrefix(rest, "ftcontains("):
		p.pos += len("ftcontains(")
		end := strings.IndexByte(p.s[p.pos:], ')')
		if end < 0 {
			return nil, false, p.errf("unterminated ftcontains(")
		}
		arg := p.s[p.pos : p.pos+end]
		p.pos += end + 1
		terms := splitTerms(arg)
		if len(terms) == 0 {
			return nil, false, p.errf("ftcontains() needs at least one term")
		}
		return FTContains{Terms: terms}, true, nil

	case strings.HasPrefix(rest, "ftsim("):
		p.pos += len("ftsim(")
		minMatch, err := p.number()
		if err != nil {
			return nil, false, err
		}
		if !p.eat(',') {
			return nil, false, p.errf("expected ',' after ftsim threshold")
		}
		end := strings.IndexByte(p.s[p.pos:], ')')
		if end < 0 {
			return nil, false, p.errf("unterminated ftsim(")
		}
		arg := p.s[p.pos : p.pos+end]
		p.pos += end + 1
		terms := splitTerms(arg)
		if len(terms) == 0 {
			return nil, false, p.errf("ftsim() needs at least one term")
		}
		if minMatch < 1 || minMatch > len(terms) {
			return nil, false, p.errf("ftsim threshold %d out of [1,%d]", minMatch, len(terms))
		}
		return FTSim{Terms: terms, Min: minMatch}, true, nil

	case strings.HasPrefix(rest, ">="):
		p.pos += 2
		n, err := p.number()
		if err != nil {
			return nil, false, err
		}
		return p.closedRange(n, MaxBound)
	case strings.HasPrefix(rest, "<="):
		p.pos += 2
		n, err := p.number()
		if err != nil {
			return nil, false, err
		}
		return p.closedRange(-MaxBound, n)
	case strings.HasPrefix(rest, ">"):
		p.pos++
		n, err := p.number()
		if err != nil {
			return nil, false, err
		}
		if n >= MaxBound { // checked first: n+1 would overflow at the int limit
			return nil, false, p.errf("empty range (%d,%d]", n, MaxBound)
		}
		return Range{Lo: n + 1, Hi: MaxBound}, true, nil
	case strings.HasPrefix(rest, "<"):
		p.pos++
		n, err := p.number()
		if err != nil {
			return nil, false, err
		}
		if n <= -MaxBound { // checked first: n-1 would overflow at the int limit
			return nil, false, p.errf("empty range [%d,%d)", -MaxBound, n)
		}
		return Range{Lo: -MaxBound, Hi: n - 1}, true, nil
	case strings.HasPrefix(rest, "="):
		p.pos++
		n, err := p.number()
		if err != nil {
			return nil, false, err
		}
		return Range{Lo: n, Hi: n}, true, nil
	}
	return nil, false, nil
}

// Package cfd implements Conditional Functional Dependencies — the
// data-quality rule language Σ used by GDR — together with an incremental
// violation engine that maintains, per rule, the violation count vio(D,{φ})
// of Definition 1, the satisfaction count |D ⊨ φ|, the rule context |D(φ)|
// and the global DirtyTuples set, all updated in O(1)-ish time per cell edit.
package cfd

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gdr/internal/relation"
)

// Wildcard is the pattern entry '−' of the paper: the attribute may take any
// value (a "variable" position in the tableau).
const Wildcard = "_"

// CFD is a conditional functional dependency in normal form: a single RHS
// attribute and a single pattern tuple, φ : (LHS → RHS, tp). Multi-RHS rules
// are normalized by Parse / Normalize into several CFDs.
type CFD struct {
	// ID names the rule (e.g. "phi1"); used in diagnostics and reports.
	ID string
	// LHS lists the determinant attributes X.
	LHS []string
	// RHS is the single dependent attribute A.
	RHS string
	// TP maps every attribute in LHS ∪ {RHS} to its pattern value: a
	// constant from the attribute's domain, or Wildcard.
	TP map[string]string
}

// New builds a normal-form CFD and validates its shape (see checkShape).
func New(id string, lhs []string, rhs string, tp map[string]string) (*CFD, error) {
	c := &CFD{ID: id, LHS: append([]string(nil), lhs...), RHS: rhs, TP: make(map[string]string, len(tp))}
	for k, v := range tp {
		c.TP[k] = v
	}
	if err := c.checkShape(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkShape enforces normal form: a non-empty LHS without duplicates, an
// RHS outside the LHS, and a pattern entry for exactly LHS ∪ {RHS}.
func (c *CFD) checkShape() error {
	if len(c.LHS) == 0 {
		return fmt.Errorf("cfd %s: empty LHS", c.ID)
	}
	seen := make(map[string]bool, len(c.LHS))
	for _, a := range c.LHS {
		if seen[a] {
			return fmt.Errorf("cfd %s: duplicate LHS attribute %q", c.ID, a)
		}
		seen[a] = true
		if _, ok := c.TP[a]; !ok {
			return fmt.Errorf("cfd %s: missing pattern for LHS attribute %q", c.ID, a)
		}
	}
	if seen[c.RHS] {
		return fmt.Errorf("cfd %s: RHS %q also appears in LHS", c.ID, c.RHS)
	}
	if _, ok := c.TP[c.RHS]; !ok {
		return fmt.Errorf("cfd %s: missing pattern for RHS attribute %q", c.ID, c.RHS)
	}
	if len(c.TP) != len(c.LHS)+1 {
		return fmt.Errorf("cfd %s: pattern mentions attributes outside LHS ∪ RHS", c.ID)
	}
	return nil
}

// MustNew is New for statically known-good rules; it panics on error.
func MustNew(id string, lhs []string, rhs string, tp map[string]string) *CFD {
	c, err := New(id, lhs, rhs, tp)
	if err != nil {
		panic(err)
	}
	return c
}

// Constant reports whether φ is a constant CFD (tp[RHS] ≠ '−'). Constant
// rules are violated by single tuples; variable rules, like plain FDs, are
// violated by pairs of tuples.
func (c *CFD) Constant() bool { return c.TP[c.RHS] != Wildcard }

// Attrs returns LHS ∪ {RHS} in declaration order.
func (c *CFD) Attrs() []string {
	out := make([]string, 0, len(c.LHS)+1)
	out = append(out, c.LHS...)
	return append(out, c.RHS)
}

// Involves reports whether attr appears in the rule.
func (c *CFD) Involves(attr string) bool {
	if attr == c.RHS {
		return true
	}
	for _, a := range c.LHS {
		if a == attr {
			return true
		}
	}
	return false
}

// MatchValue reports whether value matches the pattern entry p
// (the ≼ operator of the paper restricted to one position).
func MatchValue(value, p string) bool { return p == Wildcard || value == p }

// MatchLHS reports whether tuple t matches the LHS pattern, t[X] ≼ tp[X].
func (c *CFD) MatchLHS(s *relation.Schema, t relation.Tuple) bool {
	for _, a := range c.LHS {
		if !MatchValue(t[s.MustIndex(a)], c.TP[a]) {
			return false
		}
	}
	return true
}

// String renders the rule in the parseable text format, e.g.
//
//	phi1: ZIP -> CT :: 46360 || Michigan City
func (c *CFD) String() string {
	lhsPat := make([]string, len(c.LHS))
	for i, a := range c.LHS {
		lhsPat[i] = c.TP[a]
	}
	return fmt.Sprintf("%s: %s -> %s :: %s || %s",
		c.ID, strings.Join(c.LHS, ", "), c.RHS, strings.Join(lhsPat, ", "), c.TP[c.RHS])
}

// Validate checks the rule's normal-form shape, as New does, and that every
// attribute it mentions exists in the schema. NewEngine calls it, so it is
// the only check a rule built as a struct literal passes.
func (c *CFD) Validate(s *relation.Schema) error {
	if err := c.checkShape(); err != nil {
		return err
	}
	for _, a := range c.Attrs() {
		if _, ok := s.Index(a); !ok {
			return fmt.Errorf("cfd %s: attribute %q not in schema %q", c.ID, a, s.Relation)
		}
	}
	return nil
}

// Normalize splits a rule with a multi-attribute RHS into normal-form CFDs,
// one per RHS attribute, following Section 1.2 of the paper. rhs and rhsPat
// are positionally aligned.
func Normalize(id string, lhs []string, lhsPat []string, rhs []string, rhsPat []string) ([]*CFD, error) {
	if len(lhs) != len(lhsPat) {
		return nil, fmt.Errorf("cfd %s: %d LHS attributes but %d LHS pattern values", id, len(lhs), len(lhsPat))
	}
	if len(rhs) != len(rhsPat) {
		return nil, fmt.Errorf("cfd %s: %d RHS attributes but %d RHS pattern values", id, len(rhs), len(rhsPat))
	}
	if len(rhs) == 0 {
		return nil, fmt.Errorf("cfd %s: empty RHS", id)
	}
	var out []*CFD
	for i, a := range rhs {
		tp := make(map[string]string, len(lhs)+1)
		for j, l := range lhs {
			tp[l] = lhsPat[j]
		}
		tp[a] = rhsPat[i]
		cid := id
		if len(rhs) > 1 {
			cid = fmt.Sprintf("%s.%d", id, i+1)
		}
		c, err := New(cid, lhs, a, tp)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ParseLine parses one rule in the text format
//
//	[name:] A1, A2 -> B1, B2 :: p1, p2 || q1, q2
//
// where pattern value "_" is the wildcard. A multi-attribute RHS is split
// into normal-form CFDs. Whitespace around separators is ignored.
func ParseLine(line string) ([]*CFD, error) {
	orig := line
	name := ""
	if i := strings.Index(line, ":"); i >= 0 && !strings.Contains(line[:i], "->") {
		name = strings.TrimSpace(line[:i])
		line = line[i+1:]
	}
	arrow := strings.Index(line, "->")
	if arrow < 0 {
		return nil, fmt.Errorf("cfd: missing '->' in rule %q", orig)
	}
	sep := strings.Index(line, "::")
	if sep < arrow {
		return nil, fmt.Errorf("cfd: missing '::' pattern separator in rule %q", orig)
	}
	lhs := splitList(line[:arrow])
	rhs := splitList(line[arrow+2 : sep])
	pat := line[sep+2:]
	bar := strings.Index(pat, "||")
	if bar < 0 {
		return nil, fmt.Errorf("cfd: missing '||' between LHS and RHS patterns in rule %q", orig)
	}
	lhsPat := splitList(pat[:bar])
	rhsPat := splitList(pat[bar+2:])
	if name == "" {
		name = fmt.Sprintf("%s->%s", strings.Join(lhs, ","), strings.Join(rhs, ","))
	}
	return Normalize(name, lhs, lhsPat, rhs, rhsPat)
}

// Parse reads rules from r, one per line. Blank lines and lines starting
// with '#' are skipped.
func Parse(r io.Reader) ([]*CFD, error) {
	var out []*CFD
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cs, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, cs...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MustParse parses rules from a string and panics on error; intended for
// tests and examples with literal rule sets.
func MustParse(text string) []*CFD {
	cs, err := Parse(strings.NewReader(text))
	if err != nil {
		panic(err)
	}
	return cs
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

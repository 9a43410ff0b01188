package hlang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Format renders a Program back to canonical HydroLogic source. The paper's
// evolutionary workflow depends on every compiler stage emitting
// "human-centric code ... suitable for eventual refinement by programmers"
// (§1.1); Format is that property for the IR itself, and Parse∘Format is
// the identity on program structure (tested by the round-trip property).
func Format(p *Program) string {
	var b strings.Builder
	for _, t := range p.Tables {
		fmt.Fprintf(&b, "table %s(%s)", t.Name, formatFields(t.Fields))
		if len(t.Key) > 0 {
			fmt.Fprintf(&b, " key(%s)", strings.Join(t.Key, ", "))
		}
		if t.Partition != "" {
			fmt.Fprintf(&b, " partition(%s)", t.Partition)
		}
		b.WriteString("\n")
	}
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "var %s: %s", v.Name, v.Type)
		if v.Init != nil {
			fmt.Fprintf(&b, " = %s", v.Init)
		}
		b.WriteString("\n")
	}
	for _, u := range p.UDFs {
		params := make([]string, len(u.Params))
		for i, t := range u.Params {
			params[i] = t.String()
		}
		fmt.Fprintf(&b, "udf %s(%s) : %s\n", u.Name, strings.Join(params, ", "), u.Result)
	}
	for _, q := range p.Queries {
		fmt.Fprintf(&b, "query %s(%s) :- %s\n", q.Name, formatQueryHead(q), formatBody(q.Body, q.Filters))
	}
	for _, h := range p.Handlers {
		fmt.Fprintf(&b, "on %s(%s)", h.Name, formatFields(h.Params))
		if h.Consistency != "" {
			fmt.Fprintf(&b, " consistency(%s)", h.Consistency)
		}
		for _, r := range h.Requires {
			fmt.Fprintf(&b, " require(%s)", r)
		}
		b.WriteString(" {\n")
		for _, s := range h.Body {
			fmt.Fprintf(&b, "    %s\n", s)
		}
		b.WriteString("}\n")
	}
	if len(p.Availability) > 0 {
		b.WriteString("availability {\n")
		for _, name := range sortedKeys(p.Availability) {
			s := p.Availability[name]
			fmt.Fprintf(&b, "    %s", name)
			if s.Domain != "" {
				fmt.Fprintf(&b, " domain=%s", s.Domain)
			}
			fmt.Fprintf(&b, " failures=%d\n", s.Failures)
		}
		b.WriteString("}\n")
	}
	if len(p.Targets) > 0 {
		b.WriteString("target {\n")
		for _, name := range sortedKeys(p.Targets) {
			s := p.Targets[name]
			fmt.Fprintf(&b, "    %s", name)
			if s.LatencyMs > 0 {
				fmt.Fprintf(&b, " latency=%sms", strconv.FormatFloat(s.LatencyMs, 'f', -1, 64))
			}
			if s.Cost > 0 {
				fmt.Fprintf(&b, " cost=%s", strconv.FormatFloat(s.Cost, 'f', -1, 64))
			}
			if s.Processor != "" {
				fmt.Fprintf(&b, " processor=%s", s.Processor)
			}
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func formatFields(fs []Field) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.Name + ": " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

func formatQueryHead(q *QueryRule) string {
	parts := make([]string, len(q.Head))
	for i, a := range q.Head {
		if q.Agg != "" && i == len(q.Head)-1 {
			parts[i] = fmt.Sprintf("%s<%s>", q.Agg, q.AggVar)
			continue
		}
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

func formatBody(body []BodyAtom, filters []Expr) string {
	var parts []string
	for _, a := range body {
		parts = append(parts, a.String())
	}
	for _, f := range filters {
		s := f.String()
		if _, call := f.(*CallExpr); call {
			s = "(" + s + ")" // bare, a call filter would reparse as an atom
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ", ")
}

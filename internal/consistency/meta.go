package consistency

import (
	"fmt"
	"sort"

	"hydro/internal/hlang"
)

// Metaconsistency (§7.2): a public API call may cross several internal
// handlers with different consistency specs. Composition paths are found by
// dataflow analysis over `send` targets; a path where a strong handler
// forwards work through a weaker one silently downgrades the guarantee the
// caller observes, so it is flagged.

// levelRank orders consistency levels for comparison.
func levelRank(l hlang.ConsistencyLevel) int {
	switch l {
	case hlang.Serializable:
		return 2
	case hlang.Causal:
		return 1
	default:
		return 0
	}
}

// MetaIssue is one flagged composition path.
type MetaIssue struct {
	// Path is the handler chain, public entry first.
	Path []string
	// DeclaredAt is the strongest level declared along the path.
	Declared hlang.ConsistencyLevel
	// WeakestLink is the weakest level on the path.
	WeakestLink hlang.ConsistencyLevel
	// Where is the handler providing only WeakestLink.
	Where string
}

func (m MetaIssue) String() string {
	return fmt.Sprintf("path %v declares %s but %s provides only %s",
		m.Path, m.Declared, m.Where, m.WeakestLink)
}

// CheckMeta finds composition paths whose observable consistency is weaker
// than the entry handler's declared level. Paths are discovered statically
// from send targets that are themselves handlers (the conservative static
// analysis §7.2 calls "easy to do"). Monotone handlers provide any level
// for free (their effects commute), so they never weaken a path.
func CheckMeta(p *hlang.Program, a *hlang.Analysis) []MetaIssue {
	level := func(name string) hlang.ConsistencyLevel {
		h := p.Handler(name)
		if h == nil || h.Consistency == "" {
			return hlang.Eventual
		}
		return h.Consistency
	}
	var issues []MetaIssue
	// DFS over send edges from each handler, carrying the entry's level.
	var entries []string
	for _, h := range p.Handlers {
		entries = append(entries, h.Name)
	}
	sort.Strings(entries)
	for _, entry := range entries {
		declared := level(entry)
		if levelRank(declared) == 0 {
			continue // nothing to uphold
		}
		seen := map[string]bool{entry: true}
		var dfs func(cur string, path []string)
		dfs = func(cur string, path []string) {
			info := a.Handlers[cur]
			if info == nil {
				return
			}
			for _, target := range info.SendsTo {
				tgt := p.Handler(target)
				if tgt == nil || seen[target] {
					continue // external mailbox or already visited
				}
				seen[target] = true
				nextPath := append(append([]string{}, path...), target)
				tInfo := a.Handlers[target]
				// Monotone handlers uphold anything; non-monotone ones
				// provide only their own declared level.
				if tInfo != nil && tInfo.Mono == hlang.NonMonotone &&
					levelRank(level(target)) < levelRank(declared) {
					issues = append(issues, MetaIssue{
						Path:        nextPath,
						Declared:    declared,
						WeakestLink: level(target),
						Where:       target,
					})
				}
				dfs(target, nextPath)
			}
		}
		dfs(entry, []string{entry})
	}
	return issues
}

package operators

import (
	"specqp/internal/trace"
)

// TraceTree compiles the operator tree rooted at s into its plan-shaped
// trace-node tree, linking each operator's stats node to its inputs'. It
// returns nil when the execution was untraced (operators carry nil nodes).
// Call it after the drain.
func TraceTree(s Stream) *trace.Node {
	switch v := s.(type) {
	case *ListScan:
		return v.stats
	case *ShardedListScan:
		return v.stats
	case *AnswerScan:
		return v.stats
	case *IncrementalMerge:
		n := v.stats
		if n != nil && n.Children == nil {
			for _, in := range v.inputs {
				if c := TraceTree(in); c != nil {
					n.Children = append(n.Children, c)
				}
			}
		}
		return n
	case *RankJoin:
		n := v.stats
		if n != nil && n.Children == nil {
			if c := TraceTree(v.left); c != nil {
				n.Children = append(n.Children, c)
			}
			if c := TraceTree(v.right); c != nil {
				n.Children = append(n.Children, c)
			}
		}
		return n
	case *ProbeJoin:
		n := v.stats
		if n != nil && n.Children == nil {
			if c := TraceTree(v.left); c != nil {
				n.Children = append(n.Children, c)
			}
		}
		return n
	case *NRJN:
		n := v.stats
		if n != nil && n.Children == nil {
			if c := TraceTree(v.outer); c != nil {
				n.Children = append(n.Children, c)
			}
			if c := TraceTree(v.inner); c != nil {
				n.Children = append(n.Children, c)
			}
		}
		return n
	}
	return nil
}

// StampBuild records a leg's construction wall time (µs) on the operator's
// own trace node; on untraced executions it is a no-op.
func StampBuild(s Stream, us int64) {
	if n := nodeOf(s); n != nil {
		n.BuildUS = us
	}
}

// nodeOf returns the operator's own stats node without assembling children.
func nodeOf(s Stream) *trace.Node {
	switch v := s.(type) {
	case *ListScan:
		return v.stats
	case *ShardedListScan:
		return v.stats
	case *AnswerScan:
		return v.stats
	case *IncrementalMerge:
		return v.stats
	case *RankJoin:
		return v.stats
	case *ProbeJoin:
		return v.stats
	case *NRJN:
		return v.stats
	}
	return nil
}

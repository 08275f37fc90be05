package relax

import "specqp/internal/kg"

// Apply rewrites query pattern p with a rule of target to whose domain p
// matches (the rule came from For(p) or Top(p)), renaming the target's
// variables positionally so the rewritten pattern keeps p's variable names
// (rules are mined with placeholder variable names; what matters is which
// positions are variables). A position variable in both the target and p
// takes p's name; since p's key is the domain's, p's variable positions are
// the domain's.
//
// Example: rule 〈?s type singer〉→〈?s type vocalist〉 applied to the query
// pattern 〈?x type singer〉 yields 〈?x type vocalist〉.
func Apply(to, p kg.Pattern) kg.Pattern {
	rename := func(tgt, orig kg.Term) kg.Term {
		if tgt.IsVar && orig.IsVar {
			return orig
		}
		return tgt
	}
	return kg.NewPattern(rename(to.S, p.S), rename(to.P, p.P), rename(to.O, p.O))
}

package analysis

// Analyzers returns the full repolint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{GenBump, LockScope, SentinelErr, CtxFlow, StatsCopy, IterClose}
}

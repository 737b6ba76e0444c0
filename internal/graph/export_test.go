package graph

// CheckEngineAgainstReference hands the reference oracle to the external
// graph_test package, whose generated instances come from packages that
// import graph.
var CheckEngineAgainstReference = checkEngineAgainstReference

// LabelBudgetLeft reports what is left of the label stage's expansion
// budget after e's last Paths call: negative once it ran out and Yen
// answered.
func LabelBudgetLeft(e *KSPEngine) int { return e.budget }

// RandomRegularGraph hands the configuration-model generator to the
// external graph_test package.
var RandomRegularGraph = randomRegularGraph

package graph

// CheckEngineAgainstReference hands the reference oracle to the external
// graph_test package, whose generated instances come from packages that
// import graph.
var CheckEngineAgainstReference = checkEngineAgainstReference

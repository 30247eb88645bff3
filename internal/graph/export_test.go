package graph

// OracleKShortestPaths exposes the differential oracle to the graph_test
// package, whose fixtures come from packages that import graph.
var OracleKShortestPaths = oracleKShortestPaths

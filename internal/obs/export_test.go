package obs

// The external obs_test package runs the exporters against whole kernel
// runs (it can import experiments, which imports obs); it reaches the
// oracles through these.
var (
	OracleChromeTrace      = oracleChromeTrace
	OracleSpansChromeTrace = oracleSpansChromeTrace
	SyntheticLog           = syntheticLog
	EdgeCaseLog            = edgeCaseLog
)

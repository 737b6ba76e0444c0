package service

import "testing"

// FuzzOpPlan drives every op table entry's planner with arbitrary
// request bodies: planning must never panic, and a body a planner
// accepts must plan again to the same cache key and shard family —
// the identities the response cache, single-flight and shard routing
// rest on.
func FuzzOpPlan(f *testing.F) {
	for _, body := range opPlanSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, o := range ops {
			p, aerr := o.plan(body)
			if aerr != nil {
				continue
			}
			again, aerr := o.plan(body)
			if aerr != nil {
				t.Fatalf("%s: body %q accepted once, then rejected: %v", o.name, body, aerr)
			}
			if p.key != again.key || p.family != again.family {
				t.Fatalf("%s: body %q planned to (%s, %s), then (%s, %s)", o.name, body, p.key, p.family, again.key, again.family)
			}
		}
	})
}

// opPlanSeeds is FuzzOpPlan's seed corpus: the request bodies the service
// tests send, and rejection cases for each class of client mistake.
var opPlanSeeds = []string{
	// design
	`{"switches":12,"ports":6,"networkDegree":4,"seed":3}`,
	`{"switches":20,"ports":8,"networkDegree":5,"seed":1}`,
	// evaluate: exact, estimator, transport, inline blueprint
	`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}`,
	`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":2,"estimator":{"kind":"sampled-mcf","sample":8}}`,
	`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":3,"estimator":{"kind":"bisection"}}`,
	`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":2,"transport":{"protocol":"mptcp8","routing":"ksp8"}}`,
	`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":3,"transport":{"protocol":"tcp8","routing":"ecmp64"}}`,
	`{"topology":{"blueprint":{"name":"jellyfish(n=4,k=4,r=2)","ports":[4,4,4,4],"servers":[2,2,2,2],"links":[[0,1],[0,3],[1,2],[2,3]]}},"seed":9}`,
	// capacity-search
	`{"switches":16,"ports":6,"trials":1,"seed":11}`,
	`{"switches":16,"ports":6,"trials":2,"seed":11}`,
	`{"switches":20,"ports":8,"trials":2,"seed":7,"estimator":{"kind":"spectral","sample":16}}`,
	// whatif
	`{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`,
	`{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}},{"expand":{"switches":2,"ports":8,"networkDegree":5,"seed":3}}]}`,
	`{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":3,"transport":{"protocol":"mptcp8"},"scenarios":[{"failLinks":{"fraction":0.05,"seed":1}},{"failSwitches":{"fraction":0.1,"seed":2}}]}`,
	`{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":3,"scenarios":[{"miswire":{"count":1,"seed":5}}]}`,
	// rewire-plan
	`{"before":{"design":{"switches":10,"ports":5,"networkDegree":3,"seed":1}},"after":{"design":{"switches":10,"ports":5,"networkDegree":3,"seed":2}}}`,
	// rejections
	``,
	`null`,
	`{}`,
	`[]`,
	`{"topology":`,
	`{"switches":0,"ports":8,"networkDegree":5,"seed":1}`,
	`{"switches":10,"ports":4,"networkDegree":5,"seed":1}`,
	`{"switches":10,"ports":1,"seed":1}`,
	`{"switches":10,"ports":4,"trials":-1,"seed":1}`,
	`{"switches":10,"ports":4,"seed":1,"coldStart":true}`,
	`{"switches":10,"ports":6,"seed":2,"estimator":{"kind":"oracle"}}`,
	`{"topology":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1},"blueprint":{}},"seed":1}`,
	`{"topology":{"blueprint":{"ports":[4],"servers":[1,2]}},"seed":1}`,
	`{"topology":{"blueprint":null},"seed":1}`,
	`{"topology":{"design":{"switches":6,"ports":4,"networkDegree":4,"seed":1}},"seed":1}`,
	`{"topology":{"design":{"switches":5,"ports":4,"networkDegree":3,"seed":1}},"transport":{"protocol":"quic"}}`,
	`{"topology":{"design":{"switches":5,"ports":4,"networkDegree":3,"seed":1}},"estimator":{"kind":"bisection"},"transport":{"protocol":"tcp8"}}`,
	`{"topology":{"design":{"switches":5,"ports":4,"networkDegree":3,"seed":1}},"estimator":{"kind":"sampled-mcf","sample":-1}}`,
	`{"topology":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}},"trails":3}`,
	`{"base":{"design":{"switches":10,"ports":4,"networkDegree":2,"seed":1}},"scenarios":[{}]}`,
	`{"base":{"design":{"switches":10,"ports":4,"networkDegree":2,"seed":1}},"scenarios":[{"miswire":{"count":0,"seed":7}}]}`,
	`{"before":{"blueprint":{}},"after":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}}}`,
	`{"switches":16,"ports":6,"trials":1,"seed":11} {}`,
}

"""``JoinRule.apply`` against the former module-level helpers kept in
``tests/join_rule_oracle.py``: for any DAG and any sequence of edge
annotations, the annotation item and the sync nodes claimed must be
equal step by step."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, get_app
from repro.core.analysis import analyze_workflow
from repro.core.executor import JoinRule, annotation_class_edges
from tests import join_rule_oracle
from tests.test_executor_properties import dag_with_decisions


def oracle_apply(dag, annotated, topo, ann, marks):
    """The old step: write the marks, propagate deadness, then claim
    each sync node whose Eq. 4.1 condition holds, once."""
    for key, value in marks.items():
        ann[key] = value
    join_rule_oracle.propagate_dead(dag, annotated, ann, topo)
    fired = []
    for s in dag.sync_nodes:
        flag = f"__invoked__:{s}"
        if not ann.get(flag) and join_rule_oracle.sync_condition_met(dag, ann, s):
            ann[flag] = True
            fired.append(s)
    return fired


def assert_agree(dag, sequence):
    annotated = annotation_class_edges(dag)
    rule = JoinRule(dag, annotated)
    topo = dag.topological_order()
    got, want = {}, {}
    for marks in sequence:
        assert rule.apply(got, marks) == oracle_apply(dag, annotated, topo, want, marks)
        assert got == want


@st.composite
def dag_and_marks(draw):
    dag, _decisions = draw(dag_with_decisions())
    keys = sorted(f"{src}->{dst}" for src, dst in annotation_class_edges(dag))
    if not keys:
        return dag, []
    mark = st.dictionaries(
        st.sampled_from(keys), st.integers(0, 1), min_size=1, max_size=2
    )
    return dag, draw(st.lists(mark, max_size=2 * len(keys)))


class TestJoinRuleDifferential:
    @given(dag_and_marks())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_dags_and_annotations_agree(self, case):
        dag, sequence = case
        assert_agree(dag, sequence)

    @given(st.sampled_from(sorted(ALL_APPS)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_app_dags_agree(self, app_name, data):
        dag = analyze_workflow(get_app(app_name).build_workflow())
        keys = sorted(f"{src}->{dst}" for src, dst in annotation_class_edges(dag))
        sequence = [
            {key: data.draw(st.integers(0, 1))}
            for key in data.draw(st.permutations(keys))
        ] if keys else []
        assert_agree(dag, sequence)

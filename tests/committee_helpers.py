"""Shared test helpers for stage committees."""


class OneStage:
    """One stage of a committee, driven as a single learner with scalar feedback."""

    def __init__(self, committee):
        self.committee = committee
        self.output_bound = committee.output_bound
        self.deterministic = committee.deterministic

    def predict(self, x):
        return self.committee.predict(x)[0]

    def update(self, x, g):
        self.committee.update(x, [g])

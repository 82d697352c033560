"""Shared test helpers for stage committees."""


class OneStage:
    """One stage of a committee, driven as a single learner.

    Its update takes the stage's scalar feedback, or for a greedy committee
    its scalar offset and the round's loss.
    """

    def __init__(self, committee):
        self.committee = committee
        self.output_bound = committee.output_bound
        self.deterministic = committee.deterministic
        self.greedy_offsets = getattr(committee, "greedy_offsets", False)

    def predict(self, x):
        return self.committee.predict(x)[0]

    def update(self, x, g, *loss):
        self.committee.update(x, [g], *loss)

"""Pure-numpy seeded classifiers (no sklearn).

Two models, both bit-reproducible for a given design matrix:

- :class:`MultinomialNB` — the closed-form Laplace-smoothed baseline;
  no iteration, no initialization, nothing to drift.
- :class:`LogisticOVR` — one-vs-rest logistic regression trained by
  *full-batch* gradient descent from an all-zeros initialization for a
  *fixed* iteration count.  No shuffling, no early stopping, no random
  init: the trained weights are a pure function of ``(X, y,
  hyperparameters)``.

Determinism hygiene shared by both: fitted parameters are rounded to
:data:`ROUND_DECIMALS` decimals (well above float64 noise, well below
any decision margin), and predictions argmax over *rounded* scores.
That absorbs last-ulp BLAS differences for the 5-class family target;
for the 58-class vendor target fixed-step descent amplifies them past
any rounding, so it is reproducible only for one BLAS build and thread
count (DESIGN §5l).  Serialized models are JSON and round-trip exactly.
"""

import numpy as np

#: fitted parameters and scores are rounded to this many decimals
#: before use — the cross-platform determinism guard.
ROUND_DECIMALS = 12

#: sigmoid argument clamp (exp overflow guard; gradients saturate
#: identically on every platform).
_CLIP = 30.0


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -_CLIP, _CLIP)))


def _rounded(array):
    return np.round(np.asarray(array, dtype=np.float64), ROUND_DECIMALS)


class MultinomialNB:
    """Laplace-smoothed multinomial naive Bayes over token counts."""

    def __init__(self, alpha=1.0):
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        self.class_log_prior = None
        self.feature_log_prob = None

    def fit(self, X, y, n_classes):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        counts = np.zeros((n_classes, X.shape[1]), dtype=np.float64)
        class_counts = np.zeros(n_classes, dtype=np.float64)
        for cls in range(n_classes):
            members = X[y == cls]
            counts[cls] = members.sum(axis=0)
            class_counts[cls] = members.shape[0]
        smoothed = counts + self.alpha
        self.feature_log_prob = _rounded(
            np.log(smoothed)
            - np.log(smoothed.sum(axis=1, keepdims=True)))
        priors = np.maximum(class_counts, 1e-12)
        self.class_log_prior = _rounded(np.log(priors)
                                        - np.log(priors.sum()))
        return self

    def scores(self, X):
        """Per-class log-joint scores, rounded."""
        X = np.asarray(X, dtype=np.float64)
        return _rounded(X @ self.feature_log_prob.T
                        + self.class_log_prior)

    def predict(self, X):
        return np.argmax(self.scores(X), axis=1)

    def to_json(self):
        return {
            "alpha": self.alpha,
            "class_log_prior": self.class_log_prior.tolist(),
            "feature_log_prob": [row.tolist()
                                 for row in self.feature_log_prob],
        }

    @classmethod
    def from_json(cls, payload):
        model = cls(alpha=payload["alpha"])
        model.class_log_prior = _rounded(payload["class_log_prior"])
        model.feature_log_prob = _rounded(payload["feature_log_prob"])
        return model


class LogisticOVR:
    """One-vs-rest logistic regression, fixed-step full-batch GD.

    Rows are L2-normalized internally (token-count magnitudes vary with
    list length), the weights end in a bias column, and they start at
    zero — identical inputs always produce identical weights.  The
    descent runs in its dual form over the Gram matrix of the normalized
    rows (DESIGN §5l): one K×n×n product per step, not two K×n×d ones.
    """

    def __init__(self, iters=2000, learning_rate=30.0, l2=1e-5):
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        self.iters = int(iters)
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        self.weights = None

    @staticmethod
    def _normalized(X):
        X = np.asarray(X, dtype=np.float64)
        norms = np.sqrt((X * X).sum(axis=1, keepdims=True))
        return X / np.maximum(norms, 1e-12)

    def fit(self, X, y, n_classes):
        Xn = self._normalized(X)
        y = np.asarray(y, dtype=np.int64)
        n = Xn.shape[0]
        targets = np.zeros((n_classes, n), dtype=np.float64)
        targets[y, np.arange(n)] = 1.0
        coef = np.zeros((n_classes, n), dtype=np.float64)
        bias = np.zeros((n_classes, 1), dtype=np.float64)
        shrink = 1.0 - self.learning_rate * self.l2  # never the bias
        step = self.learning_rate / n
        # Made after and freed before every longer-lived array, so later
        # allocations can reuse its n×n block (peak RSS).
        gram = Xn @ Xn.T
        for _ in range(self.iters):
            residual = _sigmoid(coef @ gram + bias) - targets
            coef *= shrink
            coef -= step * residual
            bias -= step * residual.sum(axis=1, keepdims=True)
        del gram, residual
        self.weights = _rounded(np.hstack([coef @ Xn, bias]))
        return self

    def scores(self, X):
        """Per-class sigmoid scores in [0, 1], rounded."""
        Xn = self._normalized(X)
        Xb = np.hstack([Xn, np.ones((Xn.shape[0], 1))])
        return _rounded(_sigmoid(Xb @ self.weights.T))

    def predict(self, X):
        return np.argmax(self.scores(X), axis=1)

    def proba(self, X):
        """Sigmoid scores normalized per row (comparable confidences)."""
        scores = self.scores(X)
        return _rounded(scores
                        / np.maximum(scores.sum(axis=1, keepdims=True),
                                     1e-12))

    def to_json(self):
        return {
            "iters": self.iters,
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "weights": [row.tolist() for row in self.weights],
        }

    @classmethod
    def from_json(cls, payload):
        model = cls(iters=payload["iters"],
                    learning_rate=payload["learning_rate"],
                    l2=payload["l2"])
        model.weights = _rounded(payload["weights"])
        return model

"""The bundled example algebras, built programmatically.

The same algebras ship as text files under fixtures/ at the repository
root; a test pins the two forms against each other.
"""

from .presentation import Presentation


def skew6():
    """Six vertices, one band, and an interlaced double-zero; not laura."""
    return Presentation.build(
        ["x1", "x2", "x3", "x4", "x5", "x6"],
        [
            ("alpha", "x1", "x2"),
            ("beta1", "x2", "x4"),
            ("beta2", "x2", "x3"),
            ("gamma1", "x4", "x5"),
            ("gamma2", "x3", "x5"),
            ("delta", "x5", "x6"),
        ],
        zeros=[
            ["alpha", "beta1"],
            ["alpha", "beta2"],
            ["gamma2", "delta"],
            ["gamma1", "delta"],
        ],
    )


def thirteen():
    """Thirteen vertices, four one-sided bands, no interlaced double-zero;
    strict laura or tilted."""
    return Presentation.build(
        [str(i) for i in range(1, 14)],
        [
            ("rho1", "2", "1"),
            ("rho2", "2", "1"),
            ("rho3", "4", "3"),
            ("rho4", "4", "3"),
            ("rho5", "11", "10"),
            ("rho6", "11", "10"),
            ("rho7", "13", "12"),
            ("rho8", "13", "12"),
            ("alpha1", "5", "2"),
            ("alpha2", "6", "4"),
            ("beta1", "7", "5"),
            ("beta2", "7", "6"),
            ("gamma1", "8", "7"),
            ("gamma2", "9", "7"),
            ("delta1", "10", "8"),
            ("delta2", "12", "9"),
        ],
        zeros=[
            ["alpha1", "rho1"],
            ["alpha2", "rho4"],
            ["rho5", "delta1"],
            ["rho8", "delta2"],
            ["beta1", "alpha1"],
            ["beta2", "alpha2"],
            ["gamma1", "beta1"],
            ["gamma2", "beta2"],
            ["delta1", "gamma1"],
            ["delta2", "gamma2"],
        ],
    )


def nine():
    """Negative example: the unique-continuation axiom fails at beta1."""
    return Presentation.build(
        [f"x{i}" for i in range(1, 10)],
        [
            ("alpha1", "x1", "x3"),
            ("alpha2", "x2", "x4"),
            ("beta1", "x3", "x5"),
            ("beta2", "x4", "x5"),
            ("gamma1", "x5", "x6"),
            ("gamma2", "x5", "x7"),
            ("delta1", "x6", "x8"),
            ("delta2", "x7", "x9"),
        ],
        zeros=[
            ["alpha1", "beta1"],
            ["alpha2", "beta2"],
            ["gamma1", "delta1"],
            ["gamma2", "delta2"],
        ],
    )


def commutative_square():
    """One commutativity relation ab = cd; special biserial, not string."""
    return Presentation.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        comms=[(["a", "b"], ["c", "d"])],
    )


ALL = {
    "skew6": skew6,
    "thirteen": thirteen,
    "nine": nine,
    "commsquare": commutative_square,
}

"""Two refinements of the plain estimate: boundary means and priors.

Part 1: a mean sitting at the edge of its range (here <sigma_z> = 1 with
a pure test state) pins the estimate to a face of the state space; the
solver restricts to that face and returns the limiting channel.

Part 2: if a prior guess for the channel exists, minimizing relative
entropy against it replaces the flat maximum-entropy rule.  The same
data then yields different estimates for different priors.
"""

import numpy as np

from procmaxent import (
    ChoiState,
    Constraint,
    ObservationLevel,
    PriorChannel,
    bloch_affine_map,
    boundary_resolve,
    choi_from_apply,
    reduce_ancilla_free,
    solve_biased,
    solve_maxent,
)
from procmaxent.linalg import PAULI_X, PAULI_Y, PAULI_Z, bloch_to_density

np.set_printoptions(precision=4, suppress=True)

# ------------------------------------------------------------- boundary
print("Part 1: boundary mean")
r_hat = np.array([0.6, 0.0, 0.8])
rho = bloch_to_density(r_hat)
obs = ObservationLevel(d=2, constraints=(
    Constraint(reduce_ancilla_free(rho, PAULI_Z), 1.0, label="m"),))
sol = boundary_resolve(obs)
bm = bloch_affine_map(sol.choi)
print(f"test state along r = {r_hat}, measured <sigma_z> = 1")
print(f"boundary flag: {sol.boundary_flag}, entropy {sol.entropy_bits:.4f} bits")
print(f"image of +r: {bm(r_hat)}   (the measured outcome, deterministic)")
print(f"image of -r: {bm(-r_hat)}   (the opposite input: no information)")
print()

# --------------------------------------------------------------- biased
print("Part 2: biased estimation")
# Data: the input |0> is observed to come out as |0> (full output
# tomography of one test state).
zero = bloch_to_density([0.0, 0.0, 1.0])
cons = tuple(
    Constraint(reduce_ancilla_free(zero, P), t, label=f"out_{axis}")
    for axis, P, t in zip("xyz", (PAULI_X, PAULI_Y, PAULI_Z), (0.0, 0.0, 1.0))
)
obs = ObservationLevel(d=2, constraints=cons)

identity = choi_from_apply(lambda r: r, 2)
dephase = choi_from_apply(lambda r: np.diag(np.diag(r).copy()).astype(complex), 2)
flip = choi_from_apply(lambda r: PAULI_X @ r @ PAULI_X, 2)
mix_x = ChoiState(2, 0.5 * identity.matrix + 0.5 * flip.matrix)

plain = solve_maxent(obs)
print(f"no prior:                entropy {plain.entropy_bits:.4f} bits")
for name, prior in [("identity prior", identity),
                    ("dephasing prior", dephase),
                    ("identity/bit-flip mix", mix_x)]:
    sol = solve_biased(obs, PriorChannel(prior))
    d_id = np.linalg.norm(sol.choi.matrix - identity.matrix)
    d_deph = np.linalg.norm(sol.choi.matrix - dephase.matrix)
    print(f"{name + ':':<24} entropy {sol.entropy_bits:.4f} bits, "
          f"distance to identity {d_id:.2e}, to dephasing {d_deph:.2e}")

print()
print("The identity prior (and the identity/bit-flip mixture, whose only")
print("data-consistent support is the identity) return the identity channel;")
print("the dephasing prior returns the dephasing channel.")

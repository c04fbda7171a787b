"""commlab: executable checks for commutator norm inequalities and
range-kernel orthogonality of derivations on dense complex matrices."""

"""Executable continuous combinatorics at desk scale: symbolic graph families
on zero-dimensional spaces, their finite level quotients, the odd-closed-walk
criterion for clopen 2-colorability, explicit colorings, subshift languages,
Cantor-Bendixson ranks and finite homomorphism certificates.

Import each name from the module that defines it (`clopen.families`,
`clopen.quotients`, ...); the package itself binds none."""

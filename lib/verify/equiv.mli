(** Body-equivalence certifier.

    Proves that the routine [entry] in a candidate image is, instruction
    for instruction, the canonical library routine of the same name: the
    certifier walks both images in lockstep from the entry label —
    through branch targets, [BL] call targets (so transitively called
    millicode is covered) and fall-through — requiring structural
    equality at every step and a consistent branch-target
    correspondence. A completed walk is a simulation argument reported
    as a {!Certificate.kind.Body_equiv} certificate.

    A [BLR] case table is within the walk when the instruction before
    it is a plain unsigned extract computing the index: if the extract
    also dominates the branch (control cannot arrive any other way),
    the index is provably below [2^len] and every table slot is paired
    like an ordinary branch target. The walk stops short ([Unknown]) at
    anything else whose successors it cannot bound: an indirect branch
    that is not a return, an unbounded [BLR] table, or a materialized
    code address.

    The trusted side is a recorded {!Program.library}: the walk reads
    its image, and the dominance test reads the library's
    fall-through marks ({!Program.fall_through_only}), computed once per
    library. *)

val certify :
  canonical:Program.library ->
  entry:string ->
  Program.resolved ->
  Reciprocal.verdict

(* Fast segment-partition DP (DESIGN.md §11).

   Layer b of the DP is a max-plus matrix product against the previous
   layer: A_b[i][j] = dp_{b-1}(i-1) + seg_value i j. When A_b is inverse
   Monge (the CED closed-form segment profit is; linear/logit are in
   practice), the leftmost column argmax is nondecreasing in j, so a
   divide-and-conquer recursion computes the whole layer in O(n log n)
   evaluations instead of O(n^2).

   Each layer climbs a three-rung ladder, each rung certified by the
   same runtime spot-check (exact re-solve of sampled columns, value and
   argmax bit-for-bit):

   1. Region-wise divide and conquer. The caller may pass [regions] —
      start positions where seg_value changes branch structure (clamped
      prefix sums, underflowed exponentials); the D&C re-anchors its
      candidate range at every region start, so each region only needs
      the Monge property locally. Probed with seg-only adjacent Monge
      quadruples: the dp_{b-1} terms cancel exactly in the quadruple, so
      including them (as the pre-ladder implementation did) only
      measured floating-point cancellation against numbers many orders
      of magnitude larger than the segment deltas — the false positive
      that used to push every big logit layer onto the quadratic row.

   2. SMAWK over the full layer. Total monotonicity is strictly weaker
      than inverse Monge and is exactly what monotone argmaxes need;
      probed with sampled strict-hypothesis TM implications on the
      rounded candidate matrix (what SMAWK actually compares).

   3. Exact quadratic row — the certified backstop. A structurally
      hostile seg_value degrades to the quadratic DP rather than to
      wrong cuts. *)

type stats = {
  layers : int;
  smawk_layers : int;
  fallback_layers : int;
  evaluations : int;
  regions : int;
}

type result = {
  cuts : int list;
  segments : int;
  value : float;
  stats : stats;
}

(* Bounds checks on the hot inner loops are pure overhead once the index
   arithmetic is pinned by the validation suite; flip to [true] for a
   bounds-checked debug build (the branch is a compile-time constant, so
   flambda-less builds still drop it). *)
let checked_gets = false

let[@inline] fget (a : float array) i =
  if checked_gets then Array.get a i else Array.unsafe_get a i

let no_regions = [| 0 |]

let validate ~n ~n_bundles =
  if n < 1 then invalid_arg "Segdp: n must be positive";
  if n_bundles < 1 then invalid_arg "Segdp: n_bundles must be positive"

let check_regions ~n regions =
  let k = Array.length regions in
  if k = 0 || regions.(0) <> 0 then
    invalid_arg "Segdp: regions must start with 0";
  for r = 1 to k - 1 do
    if regions.(r) <= regions.(r - 1) || regions.(r) >= n then
      invalid_arg "Segdp: regions must be strictly increasing within [0, n)"
  done

(* Greatest [r] with [regions.(r) <= j]. *)
let region_of regions j =
  let lo = ref 0 and hi = ref (Array.length regions - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo + 1) / 2) in
    if regions.(mid) <= j then lo := mid else hi := mid - 1
  done;
  !lo

(* Exact best split point for column [j] of layer [b]: scan the full
   candidate range ascending with a strict [>] update, so the smallest
   argmax wins — the quadratic DP's tie-break, which the goldens pin. *)
let exact_best ~prev ~seg ~b j =
  let best = ref Float.neg_infinity and best_i = ref 0 in
  for i = b to j do
    let candidate = fget prev (i - 1) +. seg i j in
    if candidate > !best then begin
      best := candidate;
      best_i := i
    end
  done;
  (!best, !best_i)

let exact_layer ~prev ~cur ~choice_row ~seg ~b ~n =
  for j = b to n - 1 do
    let best, best_i = exact_best ~prev ~seg ~b j in
    cur.(j) <- best;
    choice_row.(j) <- best_i
  done

(* Monotone-decision divide and conquer over a column range: solve the
   middle column over the inherited candidate range, then recurse with
   the range split at the argmax. Identical to the exact layer whenever
   the layer matrix is inverse Monge over the range (leftmost argmaxes
   are then nondecreasing in j, ties included). *)
let dandc_range ~prev ~cur ~choice_row ~seg ~jlo ~jhi ~ilo ~ihi =
  let rec go jlo jhi ilo ihi =
    if jlo <= jhi then begin
      let jmid = jlo + ((jhi - jlo) / 2) in
      let hi = Stdlib.min jmid ihi in
      let best = ref Float.neg_infinity and best_i = ref 0 in
      for i = ilo to hi do
        let candidate = fget prev (i - 1) +. seg i jmid in
        if candidate > !best then begin
          best := candidate;
          best_i := i
        end
      done;
      cur.(jmid) <- !best;
      choice_row.(jmid) <- !best_i;
      (* [!best_i = 0] only when every candidate was NaN; clamp so the
         recursion stays well-formed (validation then forces the next
         rung). *)
      let split = Stdlib.max !best_i ilo in
      go jlo (jmid - 1) ilo split;
      go (jmid + 1) jhi split ihi
    end
  in
  go jlo jhi ilo ihi

(* Region-wise D&C over columns [b .. n-1]. Each region re-anchors the
   candidate range at [b] — monotone argmaxes are only assumed within a
   region, never across a boundary. *)
let dandc_regions ~prev ~cur ~choice_row ~seg ~b ~n ~regions =
  let nreg = Array.length regions in
  for r = 0 to nreg - 1 do
    let rlo = regions.(r) in
    let rhi = if r + 1 < nreg then regions.(r + 1) - 1 else n - 1 in
    let jlo = Stdlib.max b rlo in
    if jlo <= rhi then
      dandc_range ~prev ~cur ~choice_row ~seg ~jlo ~jhi:rhi ~ilo:b ~ihi:rhi
  done

(* SMAWK over the staircase layer matrix: rows are DP columns [j],
   columns are split candidates [i], entries prev.(i-1) + seg i j with
   the invalid triangle i > j padded to -inf (padding that preserves
   total monotonicity whenever the staircase part has it). Computes the
   leftmost row maximum of every row in O(rows + cols) evaluations per
   recursion level; exact precisely when the layer matrix is totally
   monotone — which the caller's spot-check then certifies. *)
let smawk_layer ~prev ~cur ~choice_row ~seg ~b ~n =
  let m j i =
    if i > j then Float.neg_infinity else fget prev (i - 1) +. seg i j
  in
  let rec go rows cols =
    let nr = Array.length rows in
    if nr > 0 then begin
      (* REDUCE: prune to at most [nr] candidates that can still hold
         some row's leftmost argmax. Pops are strict [>], so a tie keeps
         the earlier candidate — the quadratic DP's tie-break. *)
      let cols =
        if Array.length cols <= nr then cols
        else begin
          let stack = Array.make nr 0 in
          let top = ref 0 in
          Array.iter
            (fun c ->
              while
                !top > 0
                && m rows.(!top - 1) c > m rows.(!top - 1) stack.(!top - 1)
              do
                decr top
              done;
              if !top < nr then begin
                stack.(!top) <- c;
                incr top
              end)
            cols;
          Array.sub stack 0 !top
        end
      in
      if nr = 1 then begin
        let j = rows.(0) in
        let best = ref Float.neg_infinity and best_i = ref b in
        Array.iter
          (fun c ->
            let v = m j c in
            if v > !best then begin
              best := v;
              best_i := c
            end)
          cols;
        cur.(j) <- !best;
        choice_row.(j) <- !best_i
      end
      else begin
        let odd = Array.init (nr / 2) (fun k -> rows.((2 * k) + 1)) in
        go odd cols;
        (* Interpolate the even rows: row rows.(2k)'s leftmost argmax
           lies between its solved neighbours' argmaxes, so one pointer
           sweeps [cols] across all even rows. *)
        let ncols = Array.length cols in
        let p = ref 0 in
        let k = ref 0 in
        while !k < nr do
          let j = rows.(!k) in
          let stop =
            if !k + 1 < nr then choice_row.(rows.(!k + 1))
            else cols.(ncols - 1)
          in
          let best = ref Float.neg_infinity and best_i = ref b in
          let q = ref !p in
          let scanning = ref true in
          while !scanning && !q < ncols do
            let c = cols.(!q) in
            if c > stop then scanning := false
            else begin
              let v = m j c in
              if v > !best then begin
                best := v;
                best_i := c
              end;
              if c = stop then scanning := false else incr q
            end
          done;
          cur.(j) <- !best;
          choice_row.(j) <- !best_i;
          while !p + 1 < ncols && cols.(!p) < stop do
            incr p
          done;
          k := !k + 2
        done
      end
    end
  in
  if n - 1 >= b then begin
    let idx = Array.init (n - b) (fun k -> b + k) in
    go idx idx
  end

(* xorshift64: cheap deterministic sampling, independent of the global
   Random state (lib code must stay reproducible; DESIGN.md §10 D003). *)
let sample_int state bound =
  let s = !state in
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  let s = Int64.logxor s (Int64.shift_left s 17) in
  state := s;
  Int64.to_int (Int64.rem (Int64.logand s Int64.max_int) (Int64.of_int bound))

(* The certificate shared by every fast rung: exact re-solve of up to
   [samples] evenly spaced columns — value and argmax must match
   bit-for-bit — plus every region-start column (strided down to
   [samples] when the decomposition is finer), because the boundaries
   are exactly where the region-wise D&C re-anchors. *)
let columns_valid ~prev ~cur ~choice_row ~seg ~b ~n ~samples ~regions =
  let ok = ref true in
  let check j =
    let best, best_i = exact_best ~prev ~seg ~b j in
    if (not (Float.equal cur.(j) best)) || choice_row.(j) <> best_i then
      ok := false
  in
  let cols = Stdlib.min samples (n - b) in
  let k = ref 0 in
  while !ok && !k < cols do
    let j = if cols = 1 then n - 1 else b + (!k * (n - 1 - b) / (cols - 1)) in
    check j;
    incr k
  done;
  let nreg = Array.length regions in
  if !ok && nreg > 1 && samples > 0 then begin
    let stride = 1 + ((nreg - 1) / samples) in
    let r = ref 1 in
    while !ok && !r < nreg do
      let j = Stdlib.max b regions.(!r) in
      if j < n then check j;
      r := !r + stride
    done
  end;
  !ok

(* Rung-1 probe: [samples] adjacent inverse-Monge quadruples on
   seg_value alone, with the column pair (j, j+1) drawn inside one
   region. The dp_{b-1} terms cancel exactly in the real-arithmetic
   quadruple, so they are omitted rather than letting their
   floating-point cancellation (|dp| can exceed |seg delta| by 1e13)
   manufacture spurious violations. Sound in the fallback direction:
   any detected oddity, NaN included, rejects the rung. *)
let monge_valid ~seg ~b ~n ~samples ~regions =
  if n - b < 3 then true
  else begin
    let ok = ref true in
    let state = ref (Int64.of_int (0x9E3779B9 + (b * 0x85EBCA6B))) in
    let s = ref 0 in
    let one_region = Array.length regions = 1 in
    while !ok && !s < samples do
      let i = b + sample_int state (n - 2 - b) in
      let j = i + 1 + sample_int state (n - 2 - i) in
      if one_region || region_of regions j = region_of regions (j + 1) then begin
        let a_ij = seg i j and a_i1j1 = seg (i + 1) (j + 1) in
        let a_i1j = seg (i + 1) j and a_ij1 = seg i (j + 1) in
        if not (a_ij +. a_i1j1 >= a_i1j +. a_ij1) then ok := false
      end;
      incr s
    done;
    !ok
  end

(* Rung-2 probe: [samples] strict-hypothesis total-monotonicity
   implications on the rounded candidate matrix (dp terms included —
   these are exactly the comparisons SMAWK performs, so near-ties make
   the hypothesis false and the draw vacuous instead of noisy). *)
let tm_valid ~prev ~seg ~b ~n ~samples =
  if n - b < 3 then true
  else begin
    let ok = ref true in
    let state = ref (Int64.of_int (0xC2B2AE35 + (b * 0x27D4EB2F))) in
    let s = ref 0 in
    let cand i j = fget prev (i - 1) +. seg i j in
    while !ok && !s < samples do
      let i = b + sample_int state (n - 2 - b) in
      let i' = i + 1 + sample_int state (n - 2 - i) in
      let j = i' + sample_int state (n - 1 - i') in
      let j' = j + 1 + sample_int state (n - 1 - j) in
      let a = cand i j
      and b' = cand i' j
      and c = cand i j'
      and d = cand i' j' in
      if Float.is_nan a || Float.is_nan b' || Float.is_nan c || Float.is_nan d
      then ok := false
      else if a < b' && not (c < d) then ok := false;
      incr s
    done;
    !ok
  end

(* One layer through the ladder. [samples = 0] disables validation and
   accepts the region-wise D&C outright (documented contract). *)
let ladder_layer ~samples ~regions ~smawk_count ~fallback_count ~prev ~cur
    ~choice_row ~seg ~b ~n =
  dandc_regions ~prev ~cur ~choice_row ~seg ~b ~n ~regions;
  let dandc_ok =
    samples = 0
    || (monge_valid ~seg ~b ~n ~samples ~regions
       && columns_valid ~prev ~cur ~choice_row ~seg ~b ~n ~samples ~regions)
  in
  if not dandc_ok then begin
    Array.fill cur 0 n Float.neg_infinity;
    Array.fill choice_row 0 n 0;
    smawk_layer ~prev ~cur ~choice_row ~seg ~b ~n;
    let smawk_ok =
      tm_valid ~prev ~seg ~b ~n ~samples
      && columns_valid ~prev ~cur ~choice_row ~seg ~b ~n ~samples
           ~regions:no_regions
    in
    if smawk_ok then incr smawk_count
    else begin
      incr fallback_count;
      Array.fill cur 0 n Float.neg_infinity;
      Array.fill choice_row 0 n 0;
      exact_layer ~prev ~cur ~choice_row ~seg ~b ~n
    end
  end

let traceback ~choice ~best_b ~n =
  let rec go b j acc =
    if b = 0 then acc
    else
      let i = choice.(b).(j) in
      go (b - 1) (i - 1) (i :: acc)
  in
  go best_b (n - 1) []

let finish ~choice ~last ~b_max ~n ~stats =
  (* Smallest argmax over achievable segment counts — the quadratic DP's
     best_b selection. *)
  let best_b = ref 0 in
  for b = 1 to b_max - 1 do
    if last.(b) > last.(!best_b) then best_b := b
  done;
  {
    cuts = traceback ~choice ~best_b:!best_b ~n;
    segments = !best_b + 1;
    value = last.(!best_b);
    stats;
  }

let run ~n ~n_bundles ~regions ~smawk_count ~fallback_count ~layer seg_value =
  validate ~n ~n_bundles;
  check_regions ~n regions;
  let b_max = Stdlib.min n_bundles n in
  let evals = ref 0 in
  let seg i j =
    incr evals;
    seg_value i j
  in
  let prev = Array.make n Float.neg_infinity in
  let cur = Array.make n Float.neg_infinity in
  let choice = Array.make_matrix b_max n 0 in
  let last = Array.make b_max Float.neg_infinity in
  for j = 0 to n - 1 do
    prev.(j) <- seg 0 j
  done;
  last.(0) <- prev.(n - 1);
  for b = 1 to b_max - 1 do
    Array.fill cur 0 n Float.neg_infinity;
    let choice_row = choice.(b) in
    layer ~prev ~cur ~choice_row ~seg ~b;
    last.(b) <- cur.(n - 1);
    Array.blit cur 0 prev 0 n
  done;
  finish ~choice ~last ~b_max ~n
    ~stats:
      {
        layers = b_max;
        smawk_layers = !smawk_count;
        fallback_layers = !fallback_count;
        evaluations = !evals;
        regions = Array.length regions;
      }

let solve_quadratic ~n ~n_bundles seg_value =
  let zero = ref 0 in
  run ~n ~n_bundles ~regions:no_regions ~smawk_count:zero ~fallback_count:zero
    seg_value ~layer:(fun ~prev ~cur ~choice_row ~seg ~b ->
      exact_layer ~prev ~cur ~choice_row ~seg ~b ~n)

let solve ?(samples = 16) ?(regions = no_regions) ~n ~n_bundles seg_value =
  let smawk_count = ref 0 and fallback_count = ref 0 in
  run ~n ~n_bundles ~regions ~smawk_count ~fallback_count seg_value
    ~layer:(fun ~prev ~cur ~choice_row ~seg ~b ->
      ladder_layer ~samples ~regions ~smawk_count ~fallback_count ~prev ~cur
        ~choice_row ~seg ~b ~n)

(* --- verification --------------------------------------------------------- *)

(* The exact check for instances too large for [solve_quadratic]: re-solve
   through the same ladder, checking up to [samples] deterministically
   drawn columns of every layer against an exact full-range scan (value
   and argmax bit-for-bit) as the layer is produced, then require the
   given result's cuts and value to be the re-solve's, bit-for-bit. The
   base layer is [seg_value 0 j] by construction, so it needs no draw. *)
let verify ?(samples = 64) ?(regions = no_regions) ~n ~n_bundles seg_value r =
  let smawk_count = ref 0 and fallback_count = ref 0 in
  let ok = ref true in
  let again =
    run ~n ~n_bundles ~regions ~smawk_count ~fallback_count seg_value
      ~layer:(fun ~prev ~cur ~choice_row ~seg ~b ->
        ladder_layer ~samples:16 ~regions ~smawk_count ~fallback_count ~prev
          ~cur ~choice_row ~seg ~b ~n;
        let state = ref (Int64.of_int (0x165667B1 + (b * 0x85EBCA6B))) in
        let draws = Stdlib.min samples (n - b) in
        let s = ref 0 in
        while !ok && !s < draws do
          let j = b + sample_int state (n - b) in
          let best, best_i = exact_best ~prev ~seg:seg_value ~b j in
          if (not (Float.equal cur.(j) best)) || choice_row.(j) <> best_i then
            ok := false;
          incr s
        done)
  in
  !ok
  && List.equal Int.equal again.cuts r.cuts
  && Float.equal again.value r.value

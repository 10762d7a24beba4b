(** Descriptive statistics over float arrays.

    The evaluation of the paper is driven by dispersion statistics
    (coefficient of variation of demand and of flow distance, Table 1), so
    these helpers are exact and numerically careful (Kahan-compensated
    sums). All functions raise [Invalid_argument] on empty input unless
    noted. *)

val sum : float array -> float
(** Kahan-compensated sum; [0.] on the empty array. *)

val sum_init : int -> (int -> float) -> float
(** [sum_init n f] is [sum (Array.init n f)] without the intermediate
    array (same compensation, bit-identical result for a pure [f]);
    [0.] when [n <= 0]. The hot evaluation loops use it to fuse
    generate-then-sum passes. *)

val sum_products : float array -> float array -> float
(** [sum_products xs ys] is [sum_init n (fun i -> xs.(i) *. ys.(i))]
    (bit-identical) as a loop that allocates nothing. Requires equal
    lengths. *)

val mean : float array -> float

val variance : float array -> float
(** Population variance (divides by [n]). *)

val stddev : float array -> float

val cv : float array -> float
(** Coefficient of variation, [stddev / mean]. Requires a non-zero mean. *)

val weighted_mean : values:float array -> weights:float array -> float
(** Demand-weighted averages such as Table 1's w-avg distance. Requires
    equal lengths and a positive total weight. *)

val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0,1\]], linear interpolation between
    order statistics. Does not mutate its argument. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  cv : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** One-shot descriptive summary. [cv] is [nan] when the mean is [0]. *)

val summarize : float array -> summary

val pp_summary : Format.formatter -> summary -> unit

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] returns [(lo, hi, count)] per equal-width bin
    spanning [\[min xs, max xs\]]. Requires [bins > 0]. *)

val logsumexp : float array -> float
(** [ln (sum_i e^(x_i))], computed with the usual max-shift so that it
    neither overflows nor underflows. [neg_infinity] on the empty
    array. *)

val pearson : float array -> float array -> float
(** Sample Pearson correlation. Requires equal lengths [>= 2] and
    non-degenerate inputs. *)

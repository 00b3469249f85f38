(** Descriptive statistics and least-squares fits for experiment output.

    All functions operate on float arrays.  Sample inputs are never
    mutated (quantile functions sort a copy). *)

(** Five-number-plus summary of a sample. *)
type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p95 : float;
  max : float;
}

val mean : float array -> float

(** Sample variance with the (n-1) denominator; 0 for n < 2. *)
val variance : float array -> float

val stddev : float array -> float

(** [percentile a p] for [p] in [\[0, 100\]], with linear interpolation
    between order statistics.  Requires a non-empty array.  Sorts with
    [Float.compare]; raises [Invalid_argument] if the sample contains a
    NaN (a NaN would make the order, and hence every quantile,
    meaningless). *)
val percentile : float array -> float -> float

val median : float array -> float

(** Like the individual accessors but sorts the sample exactly once.
    Raises [Invalid_argument] on an empty or NaN-containing sample. *)
val summarize : float array -> summary

(** Least-squares line fit.  [r2] is the coefficient of determination. *)
type fit = { slope : float; intercept : float; r2 : float }

(** [linear_fit xs ys] fits [y = slope * x + intercept].
    Requires equal lengths >= 2 and non-constant [xs]. *)
val linear_fit : float array -> float array -> fit

(** [loglog_fit xs ys] fits [log y = slope * log x + intercept]; the
    slope is the empirical growth exponent.  All values must be
    positive. *)
val loglog_fit : float array -> float array -> fit

(** [geometric_mean a] of a positive sample. *)
val geometric_mean : float array -> float

(** [mean_confidence95 a] is (mean, half-width) of a normal-theory 95%
    confidence interval (1.96 standard errors). *)
val mean_confidence95 : float array -> float * float

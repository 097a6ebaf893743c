(** Verifiable ML inference as an R1CS circuit (Sec. I's zkCNN-style use
    case, mirroring [examples/ml_inference.ml]): a fixed-point two-layer
    perceptron with secret range-checked weights, a public input vector, and
    a public predicted class the circuit proves is the argmax of the logits.

    Lives in the workload library (not only in the example) so the circuit
    static-analysis corpus ({!Nocap_analysis.Circuit_corpus}) and the
    structure reports cover the ML workload. *)

val reference : w1:int array array -> w2:int array array -> int array -> int
(** Software inference: returns the predicted class index. *)

val build :
  Zk_r1cs.Builder.t ->
  w1:int array array ->
  w2:int array array ->
  x:int array ->
  predicted:int ->
  unit
(** Append the perceptron to a builder: weights as witnesses (4-bit
    range-checked), input vector and claimed class as public inputs, with
    argmax assertions tying the claim to the logits. *)

val circuit :
  ?input_dim:int ->
  ?hidden_dim:int ->
  ?classes:int ->
  seed:int64 ->
  unit ->
  Zk_r1cs.R1cs.instance * Zk_r1cs.R1cs.assignment
(** A complete random instance (defaults match the example: 8-d input,
    6 hidden neurons, 3 classes). *)

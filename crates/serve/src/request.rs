use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Unique identifier assigned to each submitted request.
pub type RequestId = u64;

/// A quality-of-service class with its own latency constraint.
///
/// The paper's §V notes that "an interactive voice chatbot might have
/// significantly tighter latency constraints than an intrusion detection
/// camera" and calls for multiple service classes; this type carries that
/// distinction.
///
/// # Examples
///
/// ```
/// use eugene_serve::ServiceClass;
/// use std::time::Duration;
///
/// let interactive = ServiceClass::new("interactive", Duration::from_millis(50));
/// let batch = ServiceClass::new("batch", Duration::from_secs(5));
/// assert!(interactive.deadline() < batch.deadline());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServiceClass {
    name: String,
    deadline: Duration,
}

impl ServiceClass {
    /// Creates a class with the given latency constraint.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(name: impl Into<String>, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        Self {
            name: name.into(),
            deadline,
        }
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class's maximum allowed latency.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }
}

/// An inference request: an input vector plus the service class governing
/// its deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// Input features (the client-supplied data item).
    pub payload: Vec<f32>,
    /// Service class (deadline).
    pub class: ServiceClass,
}

impl InferenceRequest {
    /// Creates a request in the given class.
    pub fn new(payload: Vec<f32>, class: ServiceClass) -> Self {
        Self { payload, class }
    }
}

/// The service's answer to one request — the paper's
/// `(predicted value, confidence)` tuple plus execution telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResponse {
    /// The request this answers.
    pub id: RequestId,
    /// Predicted class, if at least one stage ran.
    pub predicted: Option<usize>,
    /// Confidence attached to the prediction.
    pub confidence: Option<f32>,
    /// Number of stages executed before the answer was returned.
    pub stages_executed: usize,
    /// Whether the task missed its deadline (or its engine panicked).
    pub expired: bool,
    /// Whether the runtime force-exited the request at an earlier stage
    /// than its confidence threshold asked for (anytime degradation under
    /// overload). A degraded response is still a usable answer:
    /// `predicted`/`confidence` come from the deepest completed stage.
    pub degraded: bool,
    /// Wall-clock service latency.
    pub latency: Duration,
}

impl InferenceResponse {
    /// Whether the service produced a usable prediction.
    pub fn is_answered(&self) -> bool {
        self.predicted.is_some()
    }
}

/// One finished stage of one request, sent to the request's reply sink as
/// a [`Reply::Stage`] when its submitter asked for stages (see
/// `ServingRuntime::submit_to`) — the payload that crossed the paper's
/// "named pipe in linux".
#[derive(Debug, Clone, PartialEq)]
pub struct StageProgress {
    /// Which request progressed.
    pub request_id: RequestId,
    /// 0-based index of the stage that just finished.
    pub stage: usize,
    /// Updated classification confidence.
    pub confidence: f32,
    /// Updated predicted class.
    pub predicted: usize,
}

/// What the runtime tells a request's submitter: zero or more stage
/// reports (only if the submitter asked for them), then exactly one final
/// answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// One stage of the request finished.
    Stage(StageProgress),
    /// The request's answer; nothing follows it.
    Final(InferenceResponse),
}

/// Where the runtime sends a request's [`Reply`]s. Called from worker
/// threads (stages) and the coordinator (the final answer), so it must be
/// cheap and must not block. A request's stage replies always reach it
/// before its final one.
pub type ReplySink = Arc<dyn Fn(Reply) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_class_accessors() {
        let class = ServiceClass::new("interactive", Duration::from_millis(100));
        assert_eq!(class.name(), "interactive");
        assert_eq!(class.deadline(), Duration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn zero_deadline_rejected() {
        ServiceClass::new("bad", Duration::ZERO);
    }

    #[test]
    fn response_answered_logic() {
        let answered = InferenceResponse {
            id: 1,
            predicted: Some(3),
            confidence: Some(0.8),
            stages_executed: 2,
            expired: false,
            degraded: false,
            latency: Duration::from_millis(5),
        };
        assert!(answered.is_answered());
        let starved = InferenceResponse {
            id: 2,
            predicted: None,
            confidence: None,
            stages_executed: 0,
            expired: true,
            degraded: false,
            latency: Duration::from_millis(50),
        };
        assert!(!starved.is_answered());
    }
}
